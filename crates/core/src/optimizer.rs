//! The optimization driver: mine → pick best → extract → repeat.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use gpa_cfg::{decode_image, encode_program, Program};
use gpa_image::Image;
use gpa_mining::miner::Support;
use gpa_trace::{NoopTracer, Tracer, Value};
use gpa_verify::{has_errors, Diagnostic};

use crate::artifact::{DfgCache, RoundState};
use crate::candidate::Candidate;
use crate::extract;
use crate::graph_detect;
use crate::report::{Report, Round};
use crate::sfx_detect;
use crate::validate::{self, ValidateLevel};

/// The three detection methods compared in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// Suffix-trie / fingerprint baseline over the linear stream.
    Sfx,
    /// Directed gSpan counting containing graphs.
    DgSpan,
    /// Embedding-based counting with MIS overlap resolution.
    Edgar,
}

impl Method {
    /// The stable lowercase name used on the command line and in cache
    /// keys; [`Method::parse`] is its inverse.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Sfx => "sfx",
            Method::DgSpan => "dgspan",
            Method::Edgar => "edgar",
        }
    }

    /// Parses a [`Method::as_str`] name (case-sensitive).
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "sfx" => Some(Method::Sfx),
            "dgspan" => Some(Method::DgSpan),
            "edgar" => Some(Method::Edgar),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Sfx => write!(f, "SFX"),
            Method::DgSpan => write!(f, "DgSpan"),
            Method::Edgar => write!(f, "Edgar"),
        }
    }
}

/// How far memory disambiguation may refine the dependence graphs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AliasLevel {
    /// Every pair of memory accesses may alias (today's conservative
    /// MEM-barrier graphs, bit-for-bit).
    #[default]
    Off,
    /// The `gpa_verify::absint` value-set interpreter proves stack
    /// accesses at distinct frame offsets disjoint; their MEM edges are
    /// dropped, and every drop is re-certified by the validator (V107).
    Stack,
}

impl AliasLevel {
    /// The stable lowercase name used on the command line and in cache
    /// keys; [`AliasLevel::parse`] is its inverse.
    pub fn as_str(&self) -> &'static str {
        match self {
            AliasLevel::Off => "off",
            AliasLevel::Stack => "stack",
        }
    }

    /// Parses an [`AliasLevel::as_str`] name (case-sensitive).
    pub fn parse(s: &str) -> Option<AliasLevel> {
        match s {
            "off" => Some(AliasLevel::Off),
            "stack" => Some(AliasLevel::Stack),
            _ => None,
        }
    }
}

impl fmt::Display for AliasLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Errors surfaced by the optimizer.
#[derive(Debug)]
pub enum OptimizerError {
    /// The input image could not be lifted.
    Decode(gpa_cfg::DecodeImageError),
    /// The optimized program could not be re-encoded.
    Encode(gpa_cfg::EncodeProgramError),
    /// An extraction failed mid-run (indicates a detection bug).
    Extract(extract::ExtractError),
    /// The translation validator rejected a rewrite or the final
    /// program; the diagnostics say which claims failed.
    Validate(Vec<Diagnostic>),
}

impl fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizerError::Decode(e) => write!(f, "{e}"),
            OptimizerError::Encode(e) => write!(f, "{e}"),
            OptimizerError::Extract(e) => write!(f, "{e}"),
            OptimizerError::Validate(diags) => {
                write!(f, "validation failed with {} finding(s):", diags.len())?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for OptimizerError {}

/// Tuning knobs for an optimization run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Stop after this many extraction rounds (safety valve; the paper
    /// iterates to a fixpoint).
    pub max_rounds: usize,
    /// Fragment size cap for the graph miners.
    pub max_fragment_nodes: usize,
    /// How much of the run the translation validator re-checks.
    pub validate: ValidateLevel,
    /// Telemetry sink threaded through detection, mining and MIS
    /// resolution. Tracing observes the run without changing it, so the
    /// tracer is excluded from [`crate::artifact::image_cache_key`].
    pub tracer: Arc<dyn Tracer>,
    /// Memory-disambiguation level for the graph methods' DFGs: under
    /// [`AliasLevel::Stack`] each region also gets a relaxed DFG, which
    /// decides what is extractable (mining still counts on the
    /// conservative one). Changes the output, so it participates in
    /// [`crate::artifact::image_cache_key`].
    pub alias: AliasLevel,
    /// Pattern-visit budget per mining round (maps onto
    /// [`gpa_mining::miner::Config::max_patterns`]). Bounds the worst
    /// case of a single round, which is what lets a serving deadline be
    /// honoured: each round does at most this much lattice work before
    /// the `deadline` check between rounds can fire. Changes the output
    /// when a round would exhaust it, so a non-default value
    /// participates in [`crate::artifact::image_cache_key`].
    pub max_patterns: usize,
    /// Cooperative deadline: when set, the extraction loop stops before
    /// starting a round past this instant and returns the (well-formed,
    /// partial) report of the rounds that did complete. Wall-clock
    /// dependent, so it is excluded from
    /// [`crate::artifact::image_cache_key`] — callers must not cache a
    /// report whose run overran its deadline (the serve pipeline checks
    /// this before every cache store).
    pub deadline: Option<Instant>,
}

/// Default per-round pattern-visit budget (keys hash `max_patterns` only
/// when it differs from this, so existing cache keys and goldens are
/// unchanged).
pub const DEFAULT_MAX_PATTERNS: usize = 60_000;

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            max_rounds: 10_000,
            max_fragment_nodes: 16,
            validate: ValidateLevel::default(),
            tracer: Arc::new(NoopTracer),
            alias: AliasLevel::default(),
            max_patterns: DEFAULT_MAX_PATTERNS,
            deadline: None,
        }
    }
}

/// The procedural-abstraction optimizer: owns a rewritable [`Program`]
/// and shrinks it round by round.
#[derive(Clone, Debug)]
pub struct Optimizer {
    program: Program,
    fragment_counter: usize,
    /// The graph methods' detection inputs, carried from round to round:
    /// each extraction marks the functions it rewrites, and the next
    /// detection rebuilds only those.
    state: RoundState,
    /// The block store every rebuilt region's conservative artifact
    /// comes from: private unless [`Optimizer::with_store`] handed over
    /// a shared one.
    store: Arc<DfgCache>,
}

impl Optimizer {
    /// Lifts an image into an optimizer.
    ///
    /// # Errors
    ///
    /// Propagates [`gpa_cfg::decode_image`] failures.
    pub fn from_image(image: &Image) -> Result<Optimizer, OptimizerError> {
        Ok(Optimizer::from_program(
            decode_image(image).map_err(OptimizerError::Decode)?,
        ))
    }

    /// [`Optimizer::from_image`] under a [`RunConfig`]: the decode runs
    /// inside a `front` span on the configured tracer so `gpa perf`,
    /// `gpa trace-profile` and the per-stage histograms see decode as
    /// its own node.
    ///
    /// # Errors
    ///
    /// Propagates [`gpa_cfg::decode_image`] failures.
    pub fn from_image_configured(
        image: &Image,
        config: &RunConfig,
    ) -> Result<Optimizer, OptimizerError> {
        let _front_span = gpa_trace::span(config.tracer.as_ref(), "front");
        Optimizer::from_image(image)
    }

    /// Wraps an already-lifted program, with a private block store.
    pub fn from_program(program: Program) -> Optimizer {
        Optimizer {
            program,
            fragment_counter: 0,
            state: RoundState::default(),
            store: Arc::default(),
        }
    }

    /// This optimizer with `store` as its block store in place of its
    /// private one, for a caller that optimizes many images (`gpa
    /// batch`, `gpa serve`) and hands each optimizer the same store at
    /// construction. The store is keyed by a block's items, so sharing
    /// it never changes an output.
    pub fn with_store(self, store: Arc<DfgCache>) -> Optimizer {
        Optimizer { store, ..self }
    }

    /// The current (possibly optimized) program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Re-encodes the current program into an executable image.
    ///
    /// # Errors
    ///
    /// Propagates [`gpa_cfg::encode_program`] failures.
    pub fn encode(&self) -> Result<Image, OptimizerError> {
        encode_program(&self.program).map_err(OptimizerError::Encode)
    }

    /// Finds the best candidate under `method` without applying it.
    ///
    /// Every method searches inside a `mine` span; the graph methods
    /// first bring their carried detection inputs up to date inside a
    /// `front` span, rebuilding only the functions rewritten since the
    /// last detection, with their blocks' artifacts from the store.
    pub fn detect(&mut self, method: Method, config: &RunConfig) -> Option<Candidate> {
        let support = match method {
            Method::Sfx => {
                let _mine_span = gpa_trace::span(config.tracer.as_ref(), "mine");
                return sfx_detect::best_candidate(&self.program);
            }
            Method::DgSpan => Support::Graphs,
            Method::Edgar => Support::Embeddings,
        };
        graph_detect::best_candidate(&self.program, config, support, &self.store, &mut self.state)
    }

    /// Applies one candidate, naming the new fragment from the internal
    /// counter; returns the fragment name.
    ///
    /// With [`ValidateLevel::EveryRound`] the rewrite is statically
    /// re-validated against the pre-rewrite program ([`crate::validate`]),
    /// and any violated claim aborts with [`OptimizerError::Validate`].
    ///
    /// # Errors
    ///
    /// [`OptimizerError::Extract`] when the candidate cannot be applied
    /// (a detection bug), [`OptimizerError::Validate`] when the applied
    /// rewrite fails validation.
    pub fn apply_candidate(
        &mut self,
        candidate: &Candidate,
        level: ValidateLevel,
    ) -> Result<String, OptimizerError> {
        self.apply_candidate_with(candidate, level, AliasLevel::Off)
    }

    /// [`Optimizer::apply_candidate`] for a candidate detected under
    /// `alias`: per-round validation additionally re-derives every
    /// relaxed-MEM-edge claim the candidate carries (V107).
    ///
    /// # Errors
    ///
    /// See [`Optimizer::apply_candidate`].
    pub fn apply_candidate_with(
        &mut self,
        candidate: &Candidate,
        level: ValidateLevel,
        alias: AliasLevel,
    ) -> Result<String, OptimizerError> {
        let name = format!("{}{}", gpa_cfg::FRAGMENT_PREFIX, self.fragment_counter);
        self.fragment_counter += 1;
        // Mark before rewriting, so that an extraction failing halfway
        // cannot leave entries of a half-rewritten function behind.
        for occurrence in &candidate.occurrences {
            self.state.mark_dirty(occurrence.function);
        }
        self.state.mark_dirty(self.program.functions.len());
        let before = (level == ValidateLevel::EveryRound).then(|| self.program.clone());
        extract::apply(&mut self.program, candidate, &name).map_err(OptimizerError::Extract)?;
        if let Some(before) = before {
            let diags =
                validate::validate_extraction_with(&before, &self.program, candidate, &name, alias);
            if has_errors(&diags) {
                return Err(OptimizerError::Validate(diags));
            }
        }
        Ok(name)
    }

    /// Runs the extraction loop to a fixpoint with default tuning.
    ///
    /// # Errors
    ///
    /// See [`Optimizer::run_with`].
    pub fn run(&mut self, method: Method) -> Result<Report, OptimizerError> {
        self.run_with(method, &RunConfig::default())
    }

    /// Runs the extraction loop to a fixpoint.
    ///
    /// Each round re-mines the program, extracts the single best
    /// candidate, and repeats until nothing profitable remains (§2.1
    /// step 8: "phase (6) is repeated as long as code fragments are found
    /// that reduce the overall number of instructions").
    ///
    /// When the configured tracer is enabled the run emits hierarchical
    /// spans (`optimize` → `round` → `detect` / `apply`, plus a final
    /// `validate`). They are the run's only time record: `gpa
    /// trace-profile` and `gpa perf --profile` aggregate them into a
    /// self/total time tree, and `gpa perf` reads its per-stage
    /// histograms from them.
    ///
    /// # Errors
    ///
    /// [`OptimizerError::Extract`] when a detected candidate cannot be
    /// applied, and — under [`RunConfig::validate`] —
    /// [`OptimizerError::Validate`] when a rewrite or the final program
    /// fails the static validator.
    pub fn run_with(
        &mut self,
        method: Method,
        config: &RunConfig,
    ) -> Result<Report, OptimizerError> {
        let _run_span = gpa_trace::span(config.tracer.as_ref(), "optimize");
        let initial_words = self.program.instruction_count();
        let mut rounds = Vec::new();
        for round in 0..config.max_rounds {
            // The deadline is honoured at round granularity: every round
            // is itself bounded by `max_patterns`, so an expired deadline
            // is noticed within one bounded round, never after an
            // unbounded search.
            if config.deadline.is_some_and(|d| Instant::now() >= d) {
                config.tracer.count("run.deadline_stopped", 1);
                break;
            }
            let _round_span = gpa_trace::span(config.tracer.as_ref(), "round");
            let candidate = {
                let _detect_span = gpa_trace::span(config.tracer.as_ref(), "detect");
                self.detect(method, config)
            };
            let Some(candidate) = candidate else {
                break;
            };
            let name = {
                let _apply_span = gpa_trace::span(config.tracer.as_ref(), "apply");
                self.apply_candidate_with(&candidate, config.validate, config.alias)?
            };
            config.tracer.count("run.rounds", 1);
            if config.tracer.enabled() {
                config.tracer.event(
                    "round.applied",
                    &[
                        ("round", Value::from(round)),
                        ("saved", Value::Int(candidate.saved)),
                        ("body_words", Value::from(candidate.body_words())),
                        ("occurrences", Value::from(candidate.occurrences.len())),
                        (
                            "mechanism",
                            Value::from(graph_detect::kind_name(candidate.kind)),
                        ),
                    ],
                );
            }
            rounds.push(Round {
                kind: candidate.kind,
                body_words: candidate.body_words(),
                occurrences: candidate.occurrences.len(),
                saved: candidate.saved,
                fragment_name: name,
            });
        }
        if config.validate != ValidateLevel::Off {
            let _validate_span = gpa_trace::span(config.tracer.as_ref(), "validate");
            let diags = validate::validate_program(&self.program);
            if has_errors(&diags) {
                return Err(OptimizerError::Validate(diags));
            }
        }
        Ok(Report {
            initial_words,
            final_words: self.program.instruction_count(),
            rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_emu::Machine;
    use gpa_minicc::{compile, Options};

    fn optimize_and_check(src: &str, method: Method) -> (Report, u64) {
        let image = compile(src, &Options::default()).unwrap();
        let before = Machine::new(&image).run(100_000_000).unwrap();
        let mut opt = Optimizer::from_image(&image).unwrap();
        let report = opt.run(method).unwrap();
        let optimized = opt.encode().unwrap();
        let after = Machine::new(&optimized).run(100_000_000).unwrap();
        assert_eq!(before.exit_code, after.exit_code, "{method}: exit code");
        assert_eq!(before.output, after.output, "{method}: output");
        assert_eq!(
            report.saved_words(),
            image.code_len() as i64 - optimized.code_len() as i64 + pool_delta(&image, &optimized)
        );
        (report, after.steps)
    }

    /// Savings are counted in instructions, not pool words; compensate
    /// for pool-size changes when comparing whole code sections.
    fn pool_delta(before: &gpa_image::Image, after: &gpa_image::Image) -> i64 {
        let pools = |img: &gpa_image::Image| -> i64 {
            let program = gpa_cfg::decode_image(img).unwrap();
            img.code_len() as i64 - program.instruction_count() as i64
        };
        pools(after) - pools(before)
    }

    const DUPLICATED: &str = "
        int a(int *p, int x) { int v = p[0] * 31 + x; p[1] = v * v + 7; return v; }
        int b(int *p, int x) { int v = p[0] * 31 + x; p[1] = v * v + 7; return v + 1; }
        int c(int *p, int x) { int v = p[0] * 31 + x; p[1] = v * v + 7; return v + 2; }
        int d(int *p, int x) { int v = p[0] * 31 + x; p[1] = v * v + 7; return v + 3; }
        int buf[4];
        int main() {
            buf[0] = 5;
            int s = a(buf, 1) + b(buf, 2) + c(buf, 3) + d(buf, 4);
            putint(s + buf[1]);
            return 0;
        }";

    #[test]
    fn edgar_shrinks_duplicated_code_and_preserves_semantics() {
        let (report, _) = optimize_and_check(DUPLICATED, Method::Edgar);
        assert!(report.saved_words() > 0, "rounds: {:?}", report.rounds);
    }

    #[test]
    fn sfx_shrinks_duplicated_code_and_preserves_semantics() {
        let (report, _) = optimize_and_check(DUPLICATED, Method::Sfx);
        assert!(report.saved_words() > 0);
    }

    #[test]
    fn dgspan_shrinks_duplicated_code_and_preserves_semantics() {
        let (report, _) = optimize_and_check(DUPLICATED, Method::DgSpan);
        assert!(report.saved_words() > 0);
    }

    #[test]
    fn method_ordering_on_duplicated_code() {
        let image = compile(DUPLICATED, &Options::default()).unwrap();
        let saved = |method: Method| {
            let mut opt = Optimizer::from_image(&image).unwrap();
            opt.run(method).unwrap().saved_words()
        };
        let sfx = saved(Method::Sfx);
        let dgspan = saved(Method::DgSpan);
        let edgar = saved(Method::Edgar);
        // Edgar subsumes DgSpan's counting, so it never does worse. SFX
        // is incomparable on arbitrary *small* inputs (it may outline
        // contiguous sequences that are disconnected in the DFG, which a
        // connected-subgraph miner cannot see); the paper's Edgar ≫ SFX
        // claim is about whole benchmarks and is asserted by the
        // integration suite over the MiBench kernels.
        assert!(edgar >= dgspan, "edgar {edgar} >= dgspan {dgspan}");
        assert!(sfx > 0 && edgar > 0);
    }

    #[test]
    fn fixpoint_leaves_nothing_profitable() {
        let image = compile(DUPLICATED, &Options::default()).unwrap();
        let mut opt = Optimizer::from_image(&image).unwrap();
        opt.run(Method::Edgar).unwrap();
        assert!(opt.detect(Method::Edgar, &RunConfig::default()).is_none());
    }

    #[test]
    fn corrupted_candidate_is_rejected_by_the_validator() {
        let image = compile(DUPLICATED, &Options::default()).unwrap();
        let mut opt = Optimizer::from_image(&image).unwrap();
        let mut candidate = opt
            .detect(Method::Edgar, &RunConfig::default())
            .expect("duplicated code yields a candidate");
        // Mutate the claimed savings: the validator must re-derive the
        // cost-model figure and refuse the rewrite.
        candidate.saved += 1;
        match opt.apply_candidate(&candidate, ValidateLevel::EveryRound) {
            Err(OptimizerError::Validate(diags)) => {
                assert!(diags
                    .iter()
                    .any(|d| d.code == gpa_verify::Code::SavingsMismatch));
            }
            other => panic!("expected a validation error, got {other:?}"),
        }
    }

    #[test]
    fn reordered_body_is_rejected_by_the_validator() {
        let image = compile(DUPLICATED, &Options::default()).unwrap();
        let mut opt = Optimizer::from_image(&image).unwrap();
        let mut candidate = opt
            .detect(Method::Edgar, &RunConfig::default())
            .expect("duplicated code yields a candidate");
        // Find two adjacent dependent body items and swap them; if the
        // body happens to be fully independent, reverse it and demand a
        // savings-neutral but order-breaking pair exists.
        let deps: Vec<usize> = (1..candidate.body.len())
            .filter(|&i| {
                gpa_arm::defuse::conflicts(
                    &candidate.body[i - 1].effects(),
                    &candidate.body[i].effects(),
                )
            })
            .collect();
        let Some(&i) = deps.first() else {
            return; // No dependent pair to scramble in this body.
        };
        candidate.body.swap(i - 1, i);
        match opt.apply_candidate(&candidate, ValidateLevel::EveryRound) {
            Err(OptimizerError::Validate(diags)) => {
                assert!(diags
                    .iter()
                    .any(|d| d.code == gpa_verify::Code::BadLinearization));
            }
            other => panic!("expected a validation error, got {other:?}"),
        }
    }

    #[test]
    fn tracing_never_changes_the_report() {
        use gpa_trace::CounterTracer;
        let image = compile(DUPLICATED, &Options::default()).unwrap();
        let baseline = Optimizer::from_image(&image)
            .unwrap()
            .run(Method::Edgar)
            .unwrap();
        let tracer = Arc::new(CounterTracer::new());
        let config = RunConfig {
            tracer: tracer.clone(),
            ..RunConfig::default()
        };
        let mut opt = Optimizer::from_image(&image).unwrap();
        let traced = opt.run_with(Method::Edgar, &config).unwrap();
        assert_eq!(traced.initial_words, baseline.initial_words);
        assert_eq!(traced.final_words, baseline.final_words);
        assert_eq!(traced.rounds.len(), baseline.rounds.len());
        let c = tracer.counters();
        assert_eq!(c.get("run.rounds") as usize, traced.rounds.len());
        assert_eq!(c.get("round.applied") as usize, traced.rounds.len());
        assert!(c.get("detect.winner") >= 1, "{c:?}");
        assert!(c.get("detect.candidate") >= 1);
        assert!(c.get("mine.patterns_visited") > 0);
        // The counter identities hold across a whole run.
        assert_eq!(c.check_identities(), Ok(()));
    }

    /// Duplicated functions with real stack traffic: locals are spilled
    /// and reloaded around calls, so conservative MEM edges chain the
    /// spill slots and stack alias analysis has something to relax.
    const STACKY: &str = "
        int h(int x) { return x * 3 + 1; }
        int a(int x, int y) { int u = h(x); int v = h(y); return u * v + u - v; }
        int b(int x, int y) { int u = h(x); int v = h(y); return u * v + u - v + 1; }
        int c(int x, int y) { int u = h(x); int v = h(y); return u * v + u - v + 2; }
        int main() { putint(a(1, 2) + b(3, 4) + c(5, 6)); return 0; }";

    #[test]
    fn stack_alias_run_preserves_semantics_and_certifies_claims() {
        use gpa_trace::CounterTracer;
        for src in [DUPLICATED, STACKY] {
            let image = compile(src, &Options::default()).unwrap();
            let before = Machine::new(&image).run(100_000_000).unwrap();
            let tracer = Arc::new(CounterTracer::new());
            let config = RunConfig {
                alias: AliasLevel::Stack,
                validate: ValidateLevel::EveryRound,
                tracer: tracer.clone(),
                ..RunConfig::default()
            };
            let mut opt = Optimizer::from_image(&image).unwrap();
            let report = opt.run_with(Method::Edgar, &config).unwrap();
            assert!(report.saved_words() > 0);
            let optimized = opt.encode().unwrap();
            let after = Machine::new(&optimized).run(100_000_000).unwrap();
            assert_eq!(before.exit_code, after.exit_code);
            assert_eq!(before.output, after.output);
            let c = tracer.counters();
            assert!(c.get("absint.points") > 0);
            assert_eq!(c.check_identities(), Ok(()));
        }
    }

    #[test]
    fn stack_alias_never_saves_less_than_conservative() {
        for src in [DUPLICATED, STACKY] {
            let image = compile(src, &Options::default()).unwrap();
            let saved = |alias: AliasLevel| {
                let config = RunConfig {
                    alias,
                    validate: ValidateLevel::EveryRound,
                    ..RunConfig::default()
                };
                let mut opt = Optimizer::from_image(&image).unwrap();
                opt.run_with(Method::Edgar, &config).unwrap().saved_words()
            };
            let off = saved(AliasLevel::Off);
            let stack = saved(AliasLevel::Stack);
            assert!(stack >= off, "stack {stack} < off {off}");
        }
    }

    /// The detection inputs an optimization carries from round to round
    /// equal a fresh build of the same program after every extraction —
    /// regions, conservative artifacts, oracles and overlays, mining
    /// graphs, label ids and seed buckets — and so does every round's
    /// winner, on the five small bundled kernels at both alias levels.
    /// Every region a round rebuilds takes its artifact from the
    /// optimizer's store, which finds exactly the blocks an earlier
    /// lookup of the run built; in particular it answers every region of
    /// a rewritten function that the rewrite left unchanged.
    #[test]
    fn carried_detection_inputs_equal_a_fresh_build_every_round() {
        use crate::artifact::BlockArtifact;
        use gpa_cfg::Item;
        use gpa_mining::embed::seed_buckets;
        use gpa_trace::{CounterTracer, NoopTracer};
        use std::collections::{BTreeSet, HashSet};
        let names = |state: &RoundState| -> Vec<String> {
            (0..state.label_count() as u32)
                .map(|id| state.label_name(id).to_owned())
                .collect()
        };
        for kernel in ["bitcnts", "crc", "dijkstra", "patricia", "search"] {
            let image = gpa_minicc::compile_benchmark(kernel, &Options::default()).unwrap();
            for alias in [AliasLevel::Off, AliasLevel::Stack] {
                let config = RunConfig {
                    alias,
                    validate: ValidateLevel::Off,
                    ..RunConfig::default()
                };
                let mut opt = Optimizer::from_image(&image).unwrap();
                // The blocks the store holds; the functions the last
                // extraction marked (`None`: every function is new); and
                // their regions before it, with their artifacts.
                let mut stored: HashSet<Vec<Item>> = HashSet::new();
                let mut marked: Option<BTreeSet<usize>> = None;
                let mut before: Vec<(usize, Arc<BlockArtifact>)> = Vec::new();
                let mut unchanged = 0;
                for round in 0.. {
                    let mut fresh = Optimizer::from_program(opt.program().clone());
                    let tracer = Arc::new(CounterTracer::new());
                    let traced = RunConfig {
                        tracer: tracer.clone(),
                        ..config.clone()
                    };
                    let winner = opt.detect(Method::Edgar, &traced);
                    let expected = fresh.detect(Method::Edgar, &config);
                    let at = format!("{kernel} --alias {alias}, round {round}");
                    let (carried, built) = (&opt.state, &fresh.state);
                    assert_eq!(carried.regions.len(), built.regions.len(), "{at}");
                    for (g, (a, b)) in carried.regions.iter().zip(&built.regions).enumerate() {
                        assert!(
                            a.same_inputs(b),
                            "{at}: region {g} (function {}, item {}) differs",
                            b.info.function,
                            b.info.start
                        );
                        let labels: Vec<String> = b
                            .artifact
                            .dfg
                            .items()
                            .iter()
                            .map(Item::mining_label)
                            .collect();
                        assert_eq!(carried.keyed_labels(g), labels, "{at}: region {g} keys");
                    }
                    assert!(carried.graphs == built.graphs, "{at}: mining graphs");
                    assert_eq!(names(carried), names(built), "{at}: label ids");
                    assert!(
                        seed_buckets(&carried.graphs, 1, &NoopTracer)
                            == seed_buckets(&built.graphs, 1, &NoopTracer),
                        "{at}: seed buckets"
                    );
                    assert_eq!(winner, expected, "{at}: winner");
                    let rebuilt = carried
                        .regions
                        .iter()
                        .filter(|r| marked.as_ref().is_none_or(|m| m.contains(&r.info.function)));
                    let (mut blocks_built, mut blocks_found) = (0, 0);
                    for region in rebuilt {
                        if stored.insert(region.info.items.clone()) {
                            blocks_built += 1;
                        } else {
                            blocks_found += 1;
                        }
                        let old = before.iter().find(|(f, artifact)| {
                            *f == region.info.function && artifact.dfg.items() == region.info.items
                        });
                        if let Some((_, artifact)) = old {
                            assert!(Arc::ptr_eq(artifact, &region.artifact), "{at}: unchanged");
                            unchanged += 1;
                        }
                    }
                    let c = tracer.counters();
                    assert_eq!(
                        (c.get("front.blocks_built"), c.get("front.blocks_found")),
                        (blocks_built, blocks_found),
                        "{at}: store lookups"
                    );
                    let Some(candidate) = winner else { break };
                    // The hosts, and the fragment function's index.
                    let mut hosts: BTreeSet<usize> =
                        candidate.occurrences.iter().map(|o| o.function).collect();
                    hosts.insert(opt.program().functions.len());
                    before = carried
                        .regions
                        .iter()
                        .filter(|r| hosts.contains(&r.info.function))
                        .map(|r| (r.info.function, Arc::clone(&r.artifact)))
                        .collect();
                    marked = Some(hosts);
                    opt.apply_candidate_with(&candidate, ValidateLevel::Off, alias)
                        .unwrap();
                }
                assert!(
                    unchanged > 0,
                    "{kernel} --alias {alias}: no unchanged region"
                );
            }
        }
    }

    /// A `main` of one straight-line block of over 5,000 instructions,
    /// the kind whose DFG took 20 s to build: the front end skips the
    /// block and counts it once (no region of it ever hosts an
    /// occurrence, so `main` is never rebuilt), and the output still runs
    /// as its input does, at both alias levels.
    #[test]
    fn an_oversized_block_gets_no_dfg() {
        use crate::artifact::MAX_REGION_ITEMS;
        use gpa_trace::CounterTracer;
        let mut src = String::from("int main() { int x = 1; int y = 2;\n");
        for k in 0..800 {
            src.push_str(&format!("x = x + y * {}; y = y ^ x;\n", k % 200 + 3));
        }
        src.push_str("putint(x); putint(y); return 0; }");
        let image = compile(&src, &Options::default()).unwrap();
        let program = gpa_cfg::decode_image(&image).unwrap();
        let main = program.function("main").unwrap();
        let longest = main.regions().iter().map(|r| r.items.len()).max();
        assert!(
            longest >= Some(5_000.max(MAX_REGION_ITEMS + 1)),
            "{longest:?}"
        );
        let before = Machine::new(&image).run(100_000_000).unwrap();
        for alias in [AliasLevel::Off, AliasLevel::Stack] {
            let tracer = Arc::new(CounterTracer::new());
            let config = RunConfig {
                alias,
                tracer: tracer.clone(),
                ..RunConfig::default()
            };
            let mut opt = Optimizer::from_image(&image).unwrap();
            let report = opt.run_with(Method::Edgar, &config).unwrap();
            let c = tracer.counters();
            assert_eq!(c.get("front.regions_oversized"), 1, "--alias {alias}");
            assert_eq!(c.check_identities(), Ok(()));
            let after = Machine::new(&opt.encode().unwrap())
                .run(100_000_000)
                .unwrap();
            assert_eq!(before.exit_code, after.exit_code, "--alias {alias}");
            assert_eq!(before.output, after.output, "--alias {alias}");
            assert!(report.saved_words() >= 0);
        }
    }

    /// The names the command line and `gpa serve` knobs read parse back
    /// to the value that prints them, and nothing else parses.
    #[test]
    fn knob_names_round_trip() {
        for level in [AliasLevel::Off, AliasLevel::Stack] {
            assert_eq!(AliasLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(AliasLevel::parse("both"), None);
        assert_eq!(AliasLevel::default(), AliasLevel::Off);
        for method in [Method::Sfx, Method::DgSpan, Method::Edgar] {
            assert_eq!(Method::parse(method.as_str()), Some(method));
        }
        assert_eq!(Method::parse("Edgar"), None);
        for level in [
            ValidateLevel::Off,
            ValidateLevel::Final,
            ValidateLevel::EveryRound,
        ] {
            assert_eq!(ValidateLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(ValidateLevel::parse("every_round"), None);
    }

    #[test]
    fn no_duplication_means_no_rounds() {
        let src = "int main() { return 9; }";
        let image = compile(src, &Options::default()).unwrap();
        let mut opt = Optimizer::from_image(&image).unwrap();
        let report = opt.run(Method::Edgar).unwrap();
        // Tiny programs may still contain accidental repeats in the
        // runtime; just require termination and non-negative savings.
        assert!(report.saved_words() >= 0);
    }
}
