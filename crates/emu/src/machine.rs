//! The interpreter core.

use std::fmt;

use gpa_arm::insn::{
    AddressMode, BlockMode, DpOp, Instruction, MemOffset, MemOp, Operand2, ShiftKind,
};
use gpa_arm::{decode, Cond, Reg};
use gpa_image::Image;

use crate::memory::Memory;

/// Initial stack pointer (grows downward).
const STACK_TOP: u32 = 0x8000_0000;

/// Error conditions that abort emulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmuError {
    /// The program counter left the code section or hit data.
    BadPc(u32),
    /// A fetched word did not decode (e.g. execution ran into a literal
    /// pool).
    Undecodable {
        /// Address of the offending word.
        addr: u32,
        /// The word itself.
        word: u32,
    },
    /// The step budget ran out before the program exited.
    StepLimit(u64),
    /// An unknown `swi` service number.
    BadSyscall(u32),
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::BadPc(pc) => write!(f, "program counter {pc:#010x} outside code section"),
            EmuError::Undecodable { addr, word } => {
                write!(f, "undecodable word {word:#010x} executed at {addr:#010x}")
            }
            EmuError::StepLimit(n) => write!(f, "step limit of {n} instructions exhausted"),
            EmuError::BadSyscall(n) => write!(f, "unknown system call {n}"),
        }
    }
}

impl std::error::Error for EmuError {}

/// The result of a completed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// The status passed to the exit system call.
    pub exit_code: u32,
    /// Everything the program wrote via the `putc` service.
    pub output: Vec<u8>,
    /// Number of instructions executed.
    pub steps: u64,
}

impl Outcome {
    /// The output interpreted as UTF-8 (lossy).
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }
}

/// Condition flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Flags {
    n: bool,
    z: bool,
    c: bool,
    v: bool,
}

/// An ARM-subset virtual machine loaded with one program image.
pub struct Machine {
    regs: [u32; 16],
    flags: Flags,
    mem: Memory,
    code_base: u32,
    code_end: u32,
    brk: u32,
    input: Vec<u8>,
    input_pos: usize,
    output: Vec<u8>,
    halted: Option<u32>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.regs[15])
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Creates a machine with `image` loaded, `pc` at the entry point and
    /// the stack pointer at the top of the stack region.
    pub fn new(image: &Image) -> Machine {
        let mut mem = Memory::new();
        for (i, &word) in image.code_words().iter().enumerate() {
            mem.write_word(image.code_base() + 4 * i as u32, word);
        }
        mem.write_bytes(image.data_base(), image.data_bytes());
        let mut regs = [0u32; 16];
        regs[13] = STACK_TOP;
        regs[14] = 0; // Returning to 0 with no caller faults cleanly.
        regs[15] = image.entry();
        Machine {
            regs,
            flags: Flags::default(),
            mem,
            code_base: image.code_base(),
            code_end: image.code_end(),
            brk: (image.data_end() + 7) & !7,
            input: Vec::new(),
            input_pos: 0,
            output: Vec::new(),
            halted: None,
        }
    }

    /// Provides bytes for the `getc` system call.
    pub fn set_input(&mut self, input: impl Into<Vec<u8>>) {
        self.input = input.into();
        self.input_pos = 0;
    }

    /// Reads a general-purpose register.
    ///
    /// During execution of an instruction, reading `pc` yields the
    /// architectural value: the executing instruction's address + 8.
    /// (Internally `regs[15]` has already been advanced past the
    /// instruction when operands are read, hence the +4.)
    pub fn reg(&self, r: Reg) -> u32 {
        if r.is_pc() {
            self.regs[15].wrapping_add(4)
        } else {
            self.regs[r.number() as usize]
        }
    }

    /// Sets a general-purpose register (writing `pc` branches).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs[r.number() as usize] = value;
    }

    /// The machine's memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Runs until exit or until `max_steps` instructions have executed.
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] when the program misbehaves (bad pc,
    /// undecodable instruction, unknown syscall) or exceeds the step budget.
    pub fn run(&mut self, max_steps: u64) -> Result<Outcome, EmuError> {
        let mut steps = 0u64;
        while self.halted.is_none() {
            if steps >= max_steps {
                return Err(EmuError::StepLimit(max_steps));
            }
            self.step()?;
            steps += 1;
        }
        Ok(Outcome {
            exit_code: self.halted.expect("loop exits only when halted"),
            output: std::mem::take(&mut self.output),
            steps,
        })
    }

    /// Executes a single instruction.
    ///
    /// # Errors
    ///
    /// See [`Machine::run`].
    pub fn step(&mut self) -> Result<(), EmuError> {
        let pc = self.regs[15];
        if !pc.is_multiple_of(4) || pc < self.code_base || pc >= self.code_end {
            return Err(EmuError::BadPc(pc));
        }
        let word = self.mem.read_word(pc);
        let insn = decode(word).map_err(|_| EmuError::Undecodable { addr: pc, word })?;
        let next = pc.wrapping_add(4);
        self.regs[15] = next;
        if self.cond_passes(insn.cond()) {
            self.execute(insn)?;
        }
        Ok(())
    }

    fn cond_passes(&self, cond: Cond) -> bool {
        let Flags { n, z, c, v } = self.flags;
        match cond {
            Cond::Eq => z,
            Cond::Ne => !z,
            Cond::Cs => c,
            Cond::Cc => !c,
            Cond::Mi => n,
            Cond::Pl => !n,
            Cond::Vs => v,
            Cond::Vc => !v,
            Cond::Hi => c && !z,
            Cond::Ls => !c || z,
            Cond::Ge => n == v,
            Cond::Lt => n != v,
            Cond::Gt => !z && n == v,
            Cond::Le => z || n != v,
            Cond::Al => true,
        }
    }

    /// Evaluates a shifter operand, returning (value, carry-out).
    fn shifter(&self, op2: Operand2) -> (u32, bool) {
        match op2 {
            Operand2::Imm(v) => (v, self.flags.c),
            Operand2::Reg(r) => (self.reg(r), self.flags.c),
            Operand2::RegShift(r, kind, amount) => {
                let v = self.reg(r);
                let n = amount as u32;
                match kind {
                    ShiftKind::Lsl => (v << n, v >> (32 - n) & 1 == 1),
                    ShiftKind::Lsr if n == 32 => (0, v >> 31 == 1),
                    ShiftKind::Lsr => (v >> n, v >> (n - 1) & 1 == 1),
                    ShiftKind::Asr if n == 32 => {
                        let sign = (v as i32) >> 31;
                        (sign as u32, sign != 0)
                    }
                    ShiftKind::Asr => (((v as i32) >> n) as u32, (v as i32) >> (n - 1) & 1 == 1),
                    ShiftKind::Ror => (v.rotate_right(n), v >> (n - 1) & 1 == 1),
                }
            }
        }
    }

    fn set_nz(&mut self, value: u32) {
        self.flags.n = value >> 31 == 1;
        self.flags.z = value == 0;
    }

    fn add_with_carry(&mut self, a: u32, b: u32, carry_in: bool, set_flags: bool) -> u32 {
        let wide = a as u64 + b as u64 + carry_in as u64;
        let result = wide as u32;
        if set_flags {
            self.set_nz(result);
            self.flags.c = wide > u32::MAX as u64;
            self.flags.v = ((a ^ result) & (b ^ result)) >> 31 == 1;
        }
        result
    }

    fn execute(&mut self, insn: Instruction) -> Result<(), EmuError> {
        match insn {
            Instruction::DataProc {
                op,
                set_flags,
                rd,
                rn,
                op2,
                ..
            } => {
                let (shifted, shift_carry) = self.shifter(op2);
                let a = self.reg(rn);
                let s = set_flags || op.is_compare();
                let logical = |m: &mut Machine, value: u32| {
                    if s {
                        m.set_nz(value);
                        m.flags.c = shift_carry;
                    }
                    value
                };
                let result = match op {
                    DpOp::And | DpOp::Tst => logical(self, a & shifted),
                    DpOp::Eor | DpOp::Teq => logical(self, a ^ shifted),
                    DpOp::Orr => logical(self, a | shifted),
                    DpOp::Bic => logical(self, a & !shifted),
                    DpOp::Mov => logical(self, shifted),
                    DpOp::Mvn => logical(self, !shifted),
                    DpOp::Add => self.add_with_carry(a, shifted, false, s),
                    DpOp::Adc => {
                        let c = self.flags.c;
                        self.add_with_carry(a, shifted, c, s)
                    }
                    DpOp::Sub | DpOp::Cmp => self.add_with_carry(a, !shifted, true, s),
                    DpOp::Sbc => {
                        let c = self.flags.c;
                        self.add_with_carry(a, !shifted, c, s)
                    }
                    DpOp::Rsb => self.add_with_carry(shifted, !a, true, s),
                    DpOp::Rsc => {
                        let c = self.flags.c;
                        self.add_with_carry(shifted, !a, c, s)
                    }
                    DpOp::Cmn => self.add_with_carry(a, shifted, false, s),
                };
                if !op.is_compare() {
                    self.set_reg(rd, result);
                }
            }
            Instruction::Mul {
                set_flags,
                rd,
                rm,
                rs,
                ..
            } => {
                let result = self.reg(rm).wrapping_mul(self.reg(rs));
                self.set_reg(rd, result);
                if set_flags {
                    self.set_nz(result);
                }
            }
            Instruction::Mla {
                set_flags,
                rd,
                rm,
                rs,
                rn,
                ..
            } => {
                let result = self
                    .reg(rm)
                    .wrapping_mul(self.reg(rs))
                    .wrapping_add(self.reg(rn));
                self.set_reg(rd, result);
                if set_flags {
                    self.set_nz(result);
                }
            }
            Instruction::Mem {
                op,
                byte,
                rd,
                rn,
                offset,
                mode,
                ..
            } => {
                let base = self.reg(rn);
                let off = match offset {
                    MemOffset::Imm(v) => v as u32,
                    MemOffset::Reg(rm, false) => self.reg(rm),
                    MemOffset::Reg(rm, true) => self.reg(rm).wrapping_neg(),
                };
                let indexed = base.wrapping_add(off);
                let addr = match mode {
                    AddressMode::Offset | AddressMode::PreIndexed => indexed,
                    AddressMode::PostIndexed => base,
                };
                match op {
                    MemOp::Ldr => {
                        let value = if byte {
                            self.mem.read_byte(addr) as u32
                        } else {
                            self.mem.read_word(addr)
                        };
                        self.set_reg(rd, value);
                    }
                    MemOp::Str => {
                        let value = self.reg(rd);
                        if byte {
                            self.mem.write_byte(addr, value as u8);
                        } else {
                            self.mem.write_word(addr, value);
                        }
                    }
                }
                if mode.writes_back()
                    && !(mode == AddressMode::PreIndexed && rd == rn && op == MemOp::Ldr)
                {
                    self.set_reg(rn, indexed);
                }
                // A load into the base register wins over writeback.
                if mode.writes_back() && rd == rn && op == MemOp::Ldr {
                    // Value already written by the load for pre-index; for
                    // post-index the load used the original base, and the
                    // loaded value also wins.
                    if mode == AddressMode::PostIndexed {
                        let value = if byte {
                            self.mem.read_byte(addr) as u32
                        } else {
                            self.mem.read_word(addr)
                        };
                        self.set_reg(rd, value);
                    }
                }
            }
            Instruction::Block {
                op,
                rn,
                writeback,
                mode,
                regs,
                ..
            } => {
                let count = regs.len();
                let base = self.reg(rn);
                let (start, new_base) = match mode {
                    BlockMode::Ia => (base, base.wrapping_add(4 * count)),
                    BlockMode::Ib => (base.wrapping_add(4), base.wrapping_add(4 * count)),
                    BlockMode::Da => (
                        base.wrapping_sub(4 * count).wrapping_add(4),
                        base.wrapping_sub(4 * count),
                    ),
                    BlockMode::Db => (base.wrapping_sub(4 * count), base.wrapping_sub(4 * count)),
                };
                let mut addr = start;
                let mut loaded_base = None;
                for r in regs.iter() {
                    match op {
                        MemOp::Ldr => {
                            let value = self.mem.read_word(addr);
                            if r == rn {
                                loaded_base = Some(value);
                            }
                            if r.is_pc() {
                                self.regs[15] = value;
                            } else {
                                self.set_reg(r, value);
                            }
                        }
                        MemOp::Str => {
                            let value = self.reg(r);
                            self.mem.write_word(addr, value);
                        }
                    }
                    addr = addr.wrapping_add(4);
                }
                if writeback {
                    self.set_reg(rn, new_base);
                }
                // A loaded value for the base register overrides writeback.
                if let Some(v) = loaded_base {
                    self.set_reg(rn, v);
                }
            }
            Instruction::Branch { link, offset, .. } => {
                // self.regs[15] currently holds pc + 4; architectural pc is
                // insn address + 8 = regs[15] + 4.
                let target = self.regs[15]
                    .wrapping_add(4)
                    .wrapping_add((offset as u32).wrapping_mul(4));
                if link {
                    self.regs[14] = self.regs[15];
                }
                self.regs[15] = target;
            }
            Instruction::Bx { rm, .. } => {
                self.regs[15] = self.reg(rm) & !1;
            }
            Instruction::Swi { imm, .. } => self.syscall(imm)?,
        }
        Ok(())
    }

    fn syscall(&mut self, number: u32) -> Result<(), EmuError> {
        match number {
            0 => self.halted = Some(self.regs[0]),
            1 => self.output.push(self.regs[0] as u8),
            2 => {
                self.regs[0] = match self.input.get(self.input_pos) {
                    Some(&b) => {
                        self.input_pos += 1;
                        b as u32
                    }
                    None => u32::MAX,
                };
            }
            4 => {
                let old = self.brk;
                self.brk = self.brk.wrapping_add(self.regs[0]);
                self.regs[0] = old;
            }
            n => return Err(EmuError::BadSyscall(n)),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_arm::parse::parse_listing;
    use gpa_image::Image;

    /// Assembles a listing into an image at 0x8000 and runs it.
    fn run(asm: &str) -> Outcome {
        run_with_input(asm, b"")
    }

    fn run_with_input(asm: &str, input: &[u8]) -> Outcome {
        let mut image = Image::new(0x8000, 0x2_0000);
        for insn in parse_listing(asm).expect("listing parses") {
            image.push_code_word(insn.encode().expect("listing encodes"));
        }
        let mut m = Machine::new(&image);
        m.set_input(input.to_vec());
        m.run(1_000_000).expect("program runs")
    }

    #[test]
    fn exit_code() {
        let out = run("mov r0, #42\nswi #0");
        assert_eq!(out.exit_code, 42);
        assert_eq!(out.steps, 2);
    }

    #[test]
    fn arithmetic_and_flags() {
        // 7 * 6 == 42, tested via mul and conditional moves.
        let out = run("mov r1, #7\n\
             mov r2, #6\n\
             mul r3, r1, r2\n\
             cmp r3, #42\n\
             moveq r0, #1\n\
             movne r0, #2\n\
             swi #0");
        assert_eq!(out.exit_code, 1);
    }

    #[test]
    fn signed_comparisons() {
        // -1 < 1 signed, but not unsigned.
        let out = run("mvn r1, #0\n\
             cmp r1, #1\n\
             movlt r0, #10\n\
             addcs r0, r0, #1\n\
             swi #0");
        assert_eq!(out.exit_code, 11);
    }

    #[test]
    fn loop_sum() {
        // sum 1..=10 == 55
        let out = run("mov r0, #0\n\
             mov r1, #10\n\
             add r0, r0, r1\n\
             subs r1, r1, #1\n\
             bne -8\n\
             swi #0");
        assert_eq!(out.exit_code, 55);
    }

    #[test]
    fn memory_and_writeback() {
        let out = run("mov r1, #4096\n\
             mov r2, #17\n\
             str r2, [r1], #4\n\
             mov r3, #25\n\
             str r3, [r1]\n\
             sub r1, r1, #4\n\
             ldr r4, [r1], #4\n\
             ldr r5, [r1]\n\
             add r0, r4, r5\n\
             swi #0");
        assert_eq!(out.exit_code, 42);
    }

    #[test]
    fn byte_memory() {
        let out = run("mov r1, #4096\n\
             mov r2, #0xff\n\
             add r2, r2, #1\n\
             strb r2, [r1]\n\
             ldrb r0, [r1]\n\
             swi #0");
        // 0x100 truncates to 0 as a byte.
        assert_eq!(out.exit_code, 0);
    }

    #[test]
    fn push_pop_and_calls() {
        // main: bl f; exit(r0). f: returns 7.
        let out = run("bl +12\n\
             swi #0\n\
             mov r0, #99\n\
             push {r4, lr}\n\
             mov r0, #7\n\
             pop {r4, pc}");
        assert_eq!(out.exit_code, 7);
    }

    #[test]
    fn output_and_input() {
        let out = run_with_input(
            "swi #2\n\
             swi #1\n\
             swi #2\n\
             swi #1\n\
             mov r0, #0\n\
             swi #0",
            b"hi",
        );
        assert_eq!(out.output, b"hi");
    }

    #[test]
    fn sbrk_allocates_monotonically() {
        let out = run("mov r0, #16\n\
             swi #4\n\
             mov r4, r0\n\
             mov r0, #16\n\
             swi #4\n\
             sub r0, r0, r4\n\
             swi #0");
        assert_eq!(out.exit_code, 16);
    }

    #[test]
    fn pc_relative_load_reads_literal_pool() {
        // ldr r0, [pc, #-4] reads the word at this insn + 8 - 4 + ... we
        // instead place a literal after the exit and load it.
        let mut image = Image::new(0x8000, 0x2_0000);
        let insns = parse_listing("ldr r0, [pc, #0]\nswi #0").unwrap();
        for i in insns {
            image.push_code_word(i.encode().unwrap());
        }
        image.push_code_word(1234); // literal at 0x8008 = pc(0x8000)+8+0
        let out = Machine::new(&image).run(100).unwrap();
        assert_eq!(out.exit_code, 1234);
    }

    #[test]
    fn step_limit_and_bad_pc() {
        let mut image = Image::new(0x8000, 0x2_0000);
        // b . — infinite loop
        image.push_code_word(0xeaff_fffe);
        assert_eq!(Machine::new(&image).run(10), Err(EmuError::StepLimit(10)));
        // Run off the end of code.
        let mut image2 = Image::new(0x8000, 0x2_0000);
        image2.push_code_word(0xe3a0_0000); // mov r0, #0
        let err = Machine::new(&image2).run(10).unwrap_err();
        assert_eq!(err, EmuError::BadPc(0x8004));
    }

    #[test]
    fn shifted_operands() {
        let out = run("mov r1, #1\n\
             mov r2, r1, lsl #4\n\
             add r2, r2, r1, lsl #1\n\
             mov r3, r2, lsr #1\n\
             add r0, r2, r3\n\
             swi #0");
        // r2 = 16 + 2 = 18, r3 = 9 → 27
        assert_eq!(out.exit_code, 27);
    }
}
