//! In-memory spans recorded by the benchmark around its own calls into each
//! layer's public functions, and the checks made on them.

use crate::stats::Json;
use mmdiag::trace::clock::now_ns;

/// One recorded call: which layer function, when, under which parent, and
/// the operation whose spans it shares.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one client, kept in memory until the run ends.
pub struct Recorder {
    /// The clock reading span times count from.
    origin: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: u64) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        now_ns().saturating_sub(self.origin)
    }

    /// Run `f` inside a span; `f` gets the span's index to parent its own
    /// spans on. Returns `f`'s result and the span's index.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self, usize) -> R,
    ) -> (R, usize) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let r = f(self, id);
        self.spans[id].end_ns = self.now_ns();
        (r, id)
    }

    /// Each span's duration less the part of it its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.dur_ns() - covered.min(span.dur_ns())
            })
            .collect()
    }

    pub fn to_json(&self, client: usize) -> Json {
        let self_ns = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Int(id as u64)),
                        ("name", Json::str(s.name)),
                        ("client", Json::Int(client as u64)),
                        ("op", Json::Int(s.op)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        ("self_ns", Json::Int(self_ns[id])),
                    ])
                })
                .collect(),
        )
    }
}

/// How far measured phases may exceed the call they nest in: the two are
/// read from different clock calls.
pub const CLOCK_SLACK_NS: u64 = 1_000;

/// Split a whole into its named phases and the rest. Every required phase
/// must be present and the phases must fit inside the whole; the returned
/// remainder is the whole's time outside them, so phases plus remainder
/// add up to the whole exactly.
pub fn phase_remainder(
    whole_ns: u64,
    phases: &[(&str, u64)],
    required: &[&str],
) -> Result<u64, String> {
    if let Some(missing) = required
        .iter()
        .find(|name| !phases.iter().any(|(p, _)| p == *name))
    {
        return Err(format!("phase {missing} missing"));
    }
    let sum: u64 = phases.iter().map(|(_, ns)| ns).sum();
    if sum > whole_ns + CLOCK_SLACK_NS {
        return Err(format!(
            "phases sum to {sum} ns but the whole took {whole_ns} ns"
        ));
    }
    Ok(whole_ns.saturating_sub(sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::new(now_ns());
        rec.spans = vec![
            Span {
                name: "op",
                op: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                op: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                op: 0,
                parent: Some(0),
                start_ns: 30,
                end_ns: 60,
            },
            Span {
                name: "c",
                op: 0,
                parent: Some(1),
                start_ns: 10,
                end_ns: 20,
            },
        ];
        assert_eq!(rec.self_ns(), vec![50, 20, 30, 10]);
    }

    #[test]
    fn recorded_spans_nest() {
        let mut rec = Recorder::new(now_ns());
        let ((), outer) = rec.span("op", 7, None, |rec, id| {
            rec.span("inner", 7, Some(id), |_, _| std::hint::black_box(()));
        });
        assert_eq!(outer, 0);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[1].start_ns >= rec.spans[0].start_ns);
        assert!(rec.spans[1].end_ns <= rec.spans[0].end_ns);
        assert!(rec.spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn parts_check_catches_a_missing_phase() {
        let phases = [("probe", 100_000), ("certify", 1_000), ("grow", 800_000)];
        let all = ["probe", "certify", "grow"];
        assert_eq!(phase_remainder(1_000_000, &phases, &all), Ok(99_000));
        let no_grow = [phases[0], phases[1]];
        assert!(phase_remainder(1_000_000, &no_grow, &all)
            .unwrap_err()
            .contains("grow"));
        // A phase counted twice no longer fits inside the whole.
        let twice = [phases[0], phases[1], phases[2], phases[2]];
        assert!(phase_remainder(1_000_000, &twice, &all).is_err());
    }
}
