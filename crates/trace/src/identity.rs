//! The counter identities: accounting equations a run's counters must
//! satisfy, declared once in [`IDENTITIES`] and checked by one function,
//! [`check`].
//!
//! Each row says that a total equals the sum of its parts. A finished
//! trace (the `gpa-trace/1` counter summary, or a tracer at
//! [`crate::Tracer::finish`]) must balance every [`Form::Trace`] row; a
//! live `gpa-stats/1` snapshot of `gpa serve` must balance the
//! [`Form::Live`] row, which reads outstanding work from gauges instead
//! of a drain counter. `gpa trace-check` exits with a broken row's
//! [`Identity::exit_class`]; the load generator, the serve tests and
//! the tracers' debug assertions call the same checker.
//!
//! Rows read count-only counters ([`crate::Tracer::count`]), never the
//! counter of an event: a `gpa serve` flight-recorder dump keeps a window
//! of event lines and no counts, and must still balance every row.

use std::fmt;

/// Where an identity term is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// A counter; an absent counter reads as zero.
    Counter,
    /// A gauge of a live snapshot; an absent gauge is an error.
    Gauge,
}

/// Which record an identity applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// The counters of a finished trace.
    Trace,
    /// A live `gpa-stats/1` snapshot: counters plus gauges.
    Live,
}

/// `total == counters[0] + … + gauges[0] + …`, for one [`Form`].
#[derive(Debug, PartialEq, Eq)]
pub struct Identity {
    /// The record the row applies to.
    pub form: Form,
    /// The `gpa trace-check` exit code when the row breaks.
    pub exit_class: u8,
    /// The counter that must equal the sum.
    pub total: &'static str,
    /// The parts read from counters.
    pub counters: &'static [&'static str],
    /// The parts read from gauges (live rows only).
    pub gauges: &'static [&'static str],
}

const fn trace(exit_class: u8, total: &'static str, counters: &'static [&'static str]) -> Identity {
    Identity {
        form: Form::Trace,
        exit_class,
        total,
        counters,
        gauges: &[],
    }
}

/// Every counter identity, in checking order.
pub const IDENTITIES: &[Identity] = &[
    // Every visited lattice pattern is expanded, skipped with its
    // subtree, or stopped at the size cap — exactly one of the three.
    trace(
        4,
        "mine.patterns_visited",
        &[
            "mine.expanded",
            "mine.subtree_skipped",
            "mine.stopped_max_nodes",
        ],
    ),
    // Every code the lattice search takes up (a seed or an extension) is
    // pruned as infrequent, pruned as non-canonical, visited, or is the
    // one code a round that ran out of budget stopped on.
    trace(
        4,
        "mine.codes",
        &[
            "mine.prune_infrequent",
            "mine.prune_non_canonical",
            "mine.patterns_visited",
            "mine.prune_budget",
        ],
    ),
    // Every pattern detection's visitor sees is cut, skipped without an
    // evaluation, or evaluated — exactly one of them.
    trace(
        4,
        "detect.visits",
        &[
            "detect.prune_dead_region",
            "detect.prune_tiling_bound",
            "detect.prune_unextractable_item",
            "detect.prune_procedure_only",
            "detect.skip_eval_kind",
            "detect.skip_eval_benefit",
            "detect.candidates_evaluated",
        ],
    ),
    // Every memory pair the alias oracle examined is disjoint or kept.
    trace(
        4,
        "absint.mem_pairs_examined",
        &["absint.mem_pairs_disjoint", "absint.mem_pairs_kept"],
    ),
    // Every alias overlay a round refreshed either relaxes a pair and got
    // a graph of its own, or shares its region's conservative artifact.
    trace(
        4,
        "absint.overlays",
        &["absint.overlays_built", "absint.overlays_shared"],
    ),
    // Every region a detection round reads was rebuilt for it or carried
    // over from the round before.
    trace(
        4,
        "front.regions",
        &["front.regions_built", "front.regions_reused"],
    ),
    // Every region a round rebuilt took its artifact from the block
    // store, which either built it or already held it.
    trace(
        4,
        "front.regions_built",
        &["front.blocks_built", "front.blocks_found"],
    ),
    // Every request the daemon accepted was answered, shed, expired, or
    // abandoned at drain.
    trace(
        5,
        "serve.accepted",
        &[
            "serve.completed",
            "serve.shed",
            "serve.deadline_exceeded",
            "serve.in_flight_at_drain",
        ],
    ),
    // The same accounting while the daemon runs: requests still in the
    // system sit in the `in_flight` and `queued` gauges.
    Identity {
        form: Form::Live,
        exit_class: 5,
        total: "serve.accepted",
        counters: &["serve.completed", "serve.shed", "serve.deadline_exceeded"],
        gauges: &["in_flight", "queued"],
    },
];

/// Why a record fails [`check`].
#[derive(Debug, PartialEq, Eq)]
pub enum IdentityError {
    /// A live row's gauge is absent from the snapshot.
    MissingGauge(&'static str),
    /// A row's total differs from the sum of its parts.
    Imbalance {
        /// The broken row.
        identity: &'static Identity,
        /// The total's value.
        total: i64,
        /// The sum of the parts.
        parts: i64,
    },
}

impl fmt::Display for IdentityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdentityError::MissingGauge(name) => write!(f, "gauges has no integer `{name}`"),
            IdentityError::Imbalance {
                identity,
                total,
                parts,
            } => {
                let names: Vec<&str> = identity
                    .counters
                    .iter()
                    .chain(identity.gauges)
                    .copied()
                    .collect();
                let names = names.join(" + ");
                write!(f, "{} is {total}, but {names} is {parts}", identity.total)
            }
        }
    }
}

/// Checks every row of `form` against `lookup`, in table order, and
/// returns the first failure. `lookup` answers a name from the given
/// source, or `None` when the record lacks it.
///
/// # Errors
///
/// The first absent gauge or unbalanced row.
pub fn check(
    form: Form,
    lookup: impl Fn(Source, &str) -> Option<i64>,
) -> Result<(), IdentityError> {
    for identity in IDENTITIES.iter().filter(|i| i.form == form) {
        let total = lookup(Source::Counter, identity.total).unwrap_or(0);
        let mut parts = 0i64;
        for &name in identity.counters {
            parts = parts.saturating_add(lookup(Source::Counter, name).unwrap_or(0));
        }
        for &name in identity.gauges {
            let gauge = lookup(Source::Gauge, name).ok_or(IdentityError::MissingGauge(name))?;
            parts = parts.saturating_add(gauge);
        }
        if total != parts {
            return Err(IdentityError::Imbalance {
                identity,
                total,
                parts,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    type Record = Vec<((Source, &'static str), i64)>;

    /// A record balancing `identity`: part `k` reads `k + 1` and the
    /// total their sum. Every other row of its form that reads one of
    /// these counters is balanced too: an absent total reads the sum of
    /// its parts, or else the first absent part takes up the difference.
    /// Rows the record does not touch read zeros, which balance.
    fn balanced(identity: &Identity) -> Record {
        let counters = identity.counters.iter().map(|&n| (Source::Counter, n));
        let gauges = identity.gauges.iter().map(|&n| (Source::Gauge, n));
        let mut record: Record = counters.chain(gauges).zip(1..).collect();
        let total = record.iter().map(|&(_, v)| v).sum();
        record.push(((Source::Counter, identity.total), total));
        for row in IDENTITIES.iter().filter(|r| r.form == identity.form) {
            if !record.iter().any(|&((_, name), _)| reads(row, name)) {
                continue;
            }
            let value = |name| counter(&record, name);
            let parts: i64 = row.counters.iter().filter_map(|&n| value(n)).sum();
            let absent = row.counters.iter().find(|&&n| value(n).is_none());
            match (value(row.total), absent) {
                (None, _) => record.push(((Source::Counter, row.total), parts)),
                (Some(total), Some(&part)) => {
                    record.push(((Source::Counter, part), total - parts));
                }
                (Some(_), None) => {}
            }
        }
        record
    }

    fn counter(record: &Record, name: &str) -> Option<i64> {
        record
            .iter()
            .find(|&&(key, _)| key == (Source::Counter, name))
            .map(|&(_, v)| v)
    }

    /// Whether `row` reads `name`, as its total or as a part.
    fn reads(row: &Identity, name: &str) -> bool {
        row.total == name || row.counters.contains(&name) || row.gauges.contains(&name)
    }

    fn run(form: Form, record: &Record) -> Result<(), IdentityError> {
        check(form, |source, name| {
            record
                .iter()
                .find(|((s, n), _)| *s == source && *n == name)
                .map(|&(_, v)| v)
        })
    }

    #[test]
    fn every_row_accepts_a_balanced_record_and_rejects_a_one_off_imbalance() {
        let classes: Vec<u8> = IDENTITIES.iter().map(|i| i.exit_class).collect();
        assert_eq!(classes, [4, 4, 4, 4, 4, 4, 4, 5, 5]);
        for identity in IDENTITIES {
            let record = balanced(identity);
            assert_eq!(run(identity.form, &record), Ok(()));
            // Off by one in any part or in the total: the first row that
            // reads the bumped counter breaks and names its total. That is
            // `identity` itself unless an earlier row shares the counter
            // (`mine.patterns_visited` and `front.regions_built` are in
            // two rows each).
            for bumped in 0..record.len() {
                let mut record = record.clone();
                record[bumped].1 += 1;
                let first = IDENTITIES
                    .iter()
                    .find(|r| r.form == identity.form && reads(r, record[bumped].0 .1))
                    .unwrap();
                let err = run(identity.form, &record).unwrap_err();
                assert!(
                    matches!(err, IdentityError::Imbalance { identity: row, .. } if row == first),
                    "{err:?}"
                );
                assert!(err.to_string().starts_with(&format!("{} is ", first.total)));
            }
        }
    }

    #[test]
    fn the_live_serve_row_reads_outstanding_work_from_gauges() {
        let live: Vec<&Identity> = IDENTITIES.iter().filter(|i| i.form == Form::Live).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].gauges, ["in_flight", "queued"]);
        // A counter of the same name does not stand in for the gauge.
        let mut record = balanced(live[0]);
        let queued = record
            .iter()
            .position(|(t, _)| *t == (Source::Gauge, "queued"))
            .unwrap();
        record[queued].0 .0 = Source::Counter;
        assert_eq!(
            run(Form::Live, &record),
            Err(IdentityError::MissingGauge("queued"))
        );
    }

    #[test]
    fn imbalance_message_names_total_and_parts() {
        let err = check(Form::Trace, |_, name| {
            (name == "front.regions").then_some(4)
        })
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "front.regions is 4, but front.regions_built + front.regions_reused is 0"
        );
    }
}
