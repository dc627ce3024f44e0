//! The statically linked binary image format shared by the linker, the
//! emulator and the post-link-time rewriting pipeline.
//!
//! An [`Image`] is what the paper's framework operates on: a code section of
//! 32-bit words (instructions *and* interwoven literal-pool data), a data
//! section of raw bytes, a symbol table, and an entry point. Images can be
//! serialized to a simple container format ([`Image::to_bytes`] /
//! [`Image::from_bytes`]) so that compiled benchmarks can be written to disk
//! and re-read like real binaries.
//!
//! The rewriting pipeline receives *no* structural hints beyond the symbol
//! table: which code words are data (literal pools) is rediscovered from
//! pc-relative loads, exactly as described in the paper (Fig. 10).
//!
//! # Examples
//!
//! ```
//! use gpa_image::{Image, Symbol, SymbolKind};
//!
//! let mut image = Image::new(0x8000, 0x2_0000);
//! image.push_code_word(0xe3a0_0000); // mov r0, #0
//! image.push_code_word(0xef00_0000); // swi #0 (exit)
//! image.add_symbol(Symbol::function("_start", 0x8000, 8));
//! image.set_entry(0x8000);
//!
//! let bytes = image.to_bytes();
//! let back = Image::from_bytes(&bytes)?;
//! assert_eq!(back.code_words(), image.code_words());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

use std::fmt;

/// What a symbol names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SymbolKind {
    /// A function entry point in the code section.
    Function,
    /// A data object.
    Object,
}

/// A symbol-table entry.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Absolute address.
    pub addr: u32,
    /// Size in bytes (0 when unknown).
    pub size: u32,
    /// Function or object.
    pub kind: SymbolKind,
    /// Whether the symbol's address escapes into data or registers
    /// (function pointers). Address-taken functions constrain the
    /// rewriting pipeline the way the paper's points-to analysis does.
    pub address_taken: bool,
}

impl Symbol {
    /// Creates a function symbol.
    pub fn function(name: impl Into<String>, addr: u32, size: u32) -> Symbol {
        Symbol {
            name: name.into(),
            addr,
            size,
            kind: SymbolKind::Function,
            address_taken: false,
        }
    }

    /// Creates a data-object symbol.
    pub fn object(name: impl Into<String>, addr: u32, size: u32) -> Symbol {
        Symbol {
            name: name.into(),
            addr,
            size,
            kind: SymbolKind::Object,
            address_taken: false,
        }
    }

    /// Marks the symbol as address-taken and returns it.
    pub fn with_address_taken(mut self) -> Symbol {
        self.address_taken = true;
        self
    }
}

/// Error produced when deserializing a malformed image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageFormatError(String);

impl fmt::Display for ImageFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed image: {}", self.0)
    }
}

impl std::error::Error for ImageFormatError {}

/// A statically linked program image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Image {
    code_base: u32,
    code: Vec<u32>,
    data_base: u32,
    data: Vec<u8>,
    symbols: Vec<Symbol>,
    entry: u32,
}

impl Image {
    /// Creates an empty image with the given section base addresses.
    ///
    /// # Panics
    ///
    /// Panics if `code_base` is not word-aligned.
    pub fn new(code_base: u32, data_base: u32) -> Image {
        assert_eq!(code_base % 4, 0, "code base must be word-aligned");
        Image {
            code_base,
            code: Vec::new(),
            data_base,
            data: Vec::new(),
            symbols: Vec::new(),
            entry: code_base,
        }
    }

    /// Base address of the code section.
    pub fn code_base(&self) -> u32 {
        self.code_base
    }

    /// Base address of the data section.
    pub fn data_base(&self) -> u32 {
        self.data_base
    }

    /// The code section as 32-bit words.
    pub fn code_words(&self) -> &[u32] {
        &self.code
    }

    /// The data section bytes.
    pub fn data_bytes(&self) -> &[u8] {
        &self.data
    }

    /// The program entry point.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Sets the program entry point.
    pub fn set_entry(&mut self, entry: u32) {
        self.entry = entry;
    }

    /// The symbol table, in insertion order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Appends a word to the code section and returns its address.
    pub fn push_code_word(&mut self, word: u32) -> u32 {
        let addr = self.code_end();
        self.code.push(word);
        addr
    }

    /// Appends raw bytes to the data section and returns the start address.
    pub fn push_data(&mut self, bytes: &[u8]) -> u32 {
        let addr = self.data_end();
        self.data.extend_from_slice(bytes);
        addr
    }

    /// Adds a symbol-table entry.
    pub fn add_symbol(&mut self, symbol: Symbol) {
        self.symbols.push(symbol);
    }

    /// One past the last code address.
    pub fn code_end(&self) -> u32 {
        self.code_base + 4 * self.code.len() as u32
    }

    /// One past the last data address.
    pub fn data_end(&self) -> u32 {
        self.data_base + self.data.len() as u32
    }

    /// Number of 32-bit words in the code section.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Whether `addr` lies in the code section.
    pub fn contains_code(&self, addr: u32) -> bool {
        addr >= self.code_base && addr < self.code_end()
    }

    /// Reads the code word at an absolute address.
    ///
    /// Returns `None` when `addr` is unaligned or outside the code section.
    pub fn code_word_at(&self, addr: u32) -> Option<u32> {
        if !addr.is_multiple_of(4) || !self.contains_code(addr) {
            return None;
        }
        Some(self.code[((addr - self.code_base) / 4) as usize])
    }

    /// Replaces the entire code section (used by the rewriting pipeline when
    /// emitting the compacted program).
    pub fn set_code(&mut self, words: Vec<u32>) {
        self.code = words;
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// The function symbol covering `addr`, when the symbol has a size.
    pub fn function_at(&self, addr: u32) -> Option<&Symbol> {
        self.symbols.iter().find(|s| {
            s.kind == SymbolKind::Function && addr >= s.addr && addr < s.addr + s.size.max(4)
        })
    }

    /// Serializes the image to the container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"GPA1");
        push_u32(&mut out, self.code_base);
        push_u32(&mut out, self.data_base);
        push_u32(&mut out, self.entry);
        push_u32(&mut out, self.code.len() as u32);
        push_u32(&mut out, self.data.len() as u32);
        push_u32(&mut out, self.symbols.len() as u32);
        for &w in &self.code {
            push_u32(&mut out, w);
        }
        out.extend_from_slice(&self.data);
        for sym in &self.symbols {
            push_u32(&mut out, sym.name.len() as u32);
            out.extend_from_slice(sym.name.as_bytes());
            push_u32(&mut out, sym.addr);
            push_u32(&mut out, sym.size);
            out.push(match sym.kind {
                SymbolKind::Function => 0,
                SymbolKind::Object => 1,
            });
            out.push(sym.address_taken as u8);
        }
        out
    }

    /// Deserializes an image produced by [`Image::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`ImageFormatError`] on a bad magic number, truncation, or
    /// invalid field values.
    pub fn from_bytes(bytes: &[u8]) -> Result<Image, ImageFormatError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != b"GPA1" {
            return Err(ImageFormatError("bad magic".into()));
        }
        let code_base = r.u32()?;
        let data_base = r.u32()?;
        let entry = r.u32()?;
        let code_len = r.u32()? as usize;
        let data_len = r.u32()? as usize;
        let sym_len = r.u32()? as usize;
        if code_base % 4 != 0 {
            return Err(ImageFormatError("unaligned code base".into()));
        }
        let mut code = Vec::with_capacity(code_len.min(1 << 24));
        for _ in 0..code_len {
            code.push(r.u32()?);
        }
        let data = r.take(data_len)?.to_vec();
        let mut symbols = Vec::with_capacity(sym_len.min(1 << 20));
        for _ in 0..sym_len {
            let name_len = r.u32()? as usize;
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| ImageFormatError("symbol name is not UTF-8".into()))?;
            let addr = r.u32()?;
            let size = r.u32()?;
            let kind = match r.u8()? {
                0 => SymbolKind::Function,
                1 => SymbolKind::Object,
                k => return Err(ImageFormatError(format!("bad symbol kind {k}"))),
            };
            let address_taken = r.u8()? != 0;
            symbols.push(Symbol {
                name,
                addr,
                size,
                kind,
                address_taken,
            });
        }
        Ok(Image {
            code_base,
            code,
            data_base,
            data,
            symbols,
            entry,
        })
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageFormatError> {
        if self.pos + n > self.bytes.len() {
            return Err(ImageFormatError("truncated image".into()));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, ImageFormatError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u8(&mut self) -> Result<u8, ImageFormatError> {
        Ok(self.take(1)?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Image {
        let mut image = Image::new(0x8000, 0x2_0000);
        image.push_code_word(0xe3a0_0000);
        image.push_code_word(0xe280_0001);
        image.push_code_word(0xef00_0000);
        image.push_data(b"hello\0");
        image.add_symbol(Symbol::function("_start", 0x8000, 12));
        image.add_symbol(Symbol::object("msg", 0x2_0000, 6));
        image.add_symbol(Symbol::function("cb", 0x8008, 4).with_address_taken());
        image.set_entry(0x8000);
        image
    }

    #[test]
    fn address_arithmetic() {
        let image = sample();
        assert_eq!(image.code_end(), 0x800c);
        assert_eq!(image.data_end(), 0x2_0006);
        assert!(image.contains_code(0x8008));
        assert!(!image.contains_code(0x800c));
        assert_eq!(image.code_word_at(0x8004), Some(0xe280_0001));
        assert_eq!(image.code_word_at(0x8005), None);
        assert_eq!(image.code_word_at(0x7ffc), None);
    }

    #[test]
    fn symbol_lookup() {
        let image = sample();
        assert_eq!(image.symbol("msg").unwrap().addr, 0x2_0000);
        assert!(image.symbol("nope").is_none());
        assert_eq!(image.function_at(0x8004).unwrap().name, "_start");
        assert_eq!(image.function_at(0x8008).unwrap().name, "_start");
        assert!(image.symbol("cb").unwrap().address_taken);
    }

    #[test]
    fn serialization_round_trip() {
        let image = sample();
        let bytes = image.to_bytes();
        let back = Image::from_bytes(&bytes).unwrap();
        assert_eq!(back, image);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Image::from_bytes(b"").is_err());
        assert!(Image::from_bytes(b"NOPE").is_err());
        let mut bytes = sample().to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Image::from_bytes(&bytes).is_err());
        let mut bad_magic = sample().to_bytes();
        bad_magic[0] = b'X';
        assert!(Image::from_bytes(&bad_magic).is_err());
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_code_base_panics() {
        let _ = Image::new(0x8001, 0);
    }
}
