//! Named workload profiles: endpoint mixes modeled on the paper's §6
//! applications, with zipfian key skew.
//!
//! The paper evaluates Probase under Bing query-log traffic; this module
//! substitutes four named mixes over the same serving surface:
//!
//! * `read-heavy` — the demo-site shape: point lookups (`isa`,
//!   `typicality`, `plausibility`, `levels`) dominate, writes are rare.
//! * `write-heavy` — a continuously-ingesting deployment: half the
//!   traffic is `add-evidence`, exercising the WAL/ack path under load.
//! * `mixed` — every endpoint class, 10% writes — close to the "many
//!   applications sharing one taxonomy service" story of §5.3, and the
//!   profile perfbench and the booted-binary test drive.
//! * `conceptualize` — short-text understanding (§5.3.2): bag-of-terms
//!   conceptualization and search rewriting, the scatter-gather-heavy
//!   workload that stresses a sharded deployment's fan-out path.

use super::SeededRng;
use probase_serve::{Direction, Request};

/// The label vocabulary a run draws its keys from: the target's labels
/// (fetched over the wire or read from the snapshot).
#[derive(Debug, Clone)]
pub struct Vocab {
    /// Concept labels (used as parents / typicality subjects).
    pub concepts: Vec<String>,
    /// Instance labels (used as children / conceptualize inputs).
    pub instances: Vec<String>,
}

/// Precomputed zipfian CDF over ranks `0..n`: rank i has weight
/// `1/(i+1)^s`. Sampling is a binary search with a uniform draw.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// CDF over `n` ranks with skew exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        let u = rng.next_unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The request kinds a profile mixes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Isa,
    Typicality,
    Plausibility,
    Conceptualize,
    SearchRewrite,
    Levels,
    AddEvidence,
}

/// A named workload profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Point reads dominate; 1% writes.
    ReadHeavy,
    /// 50% `add-evidence` writes.
    WriteHeavy,
    /// Every endpoint class; 10% writes. The CI baseline profile.
    Mixed,
    /// §5.3.2 short-text understanding: conceptualize + search-rewrite.
    Conceptualize,
}

/// All profiles, in parse order.
pub const PROFILES: [Profile; 4] = [
    Profile::ReadHeavy,
    Profile::WriteHeavy,
    Profile::Mixed,
    Profile::Conceptualize,
];

impl Profile {
    /// Parse a profile name (`read-heavy`, `write-heavy`, `mixed`,
    /// `conceptualize`).
    pub fn parse(name: &str) -> Result<Profile, String> {
        match name {
            "read-heavy" => Ok(Profile::ReadHeavy),
            "write-heavy" => Ok(Profile::WriteHeavy),
            "mixed" => Ok(Profile::Mixed),
            "conceptualize" => Ok(Profile::Conceptualize),
            other => Err(format!(
                "unknown profile {other:?} (expected read-heavy, write-heavy, \
                 mixed, or conceptualize)"
            )),
        }
    }

    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Profile::ReadHeavy => "read-heavy",
            Profile::WriteHeavy => "write-heavy",
            Profile::Mixed => "mixed",
            Profile::Conceptualize => "conceptualize",
        }
    }

    /// `(op, cumulative probability)` rows; the last row must reach 1.0.
    fn mix(&self) -> &'static [(Op, f64)] {
        match self {
            Profile::ReadHeavy => &[
                (Op::Isa, 0.35),
                (Op::Typicality, 0.60),
                (Op::Plausibility, 0.80),
                (Op::Levels, 0.94),
                (Op::SearchRewrite, 0.99),
                (Op::AddEvidence, 1.0),
            ],
            Profile::WriteHeavy => &[
                (Op::AddEvidence, 0.50),
                (Op::Isa, 0.70),
                (Op::Typicality, 0.85),
                (Op::Plausibility, 0.95),
                (Op::Levels, 1.0),
            ],
            Profile::Mixed => &[
                (Op::AddEvidence, 0.10),
                (Op::Isa, 0.35),
                (Op::Typicality, 0.55),
                (Op::Plausibility, 0.70),
                (Op::Conceptualize, 0.85),
                (Op::SearchRewrite, 0.95),
                (Op::Levels, 1.0),
            ],
            Profile::Conceptualize => &[
                (Op::Conceptualize, 0.70),
                (Op::SearchRewrite, 0.90),
                (Op::Typicality, 1.0),
            ],
        }
    }

    /// Fraction of requests that are writes (for reporting).
    pub fn write_fraction(&self) -> f64 {
        match self {
            Profile::ReadHeavy => 0.01,
            Profile::WriteHeavy => 0.50,
            Profile::Mixed => 0.10,
            Profile::Conceptualize => 0.0,
        }
    }

    /// Draw one request. `write_seq` numbers `add-evidence` children and
    /// `label_space` keeps them unique across generators, so loadgen
    /// writes can never collide with real vocabulary or each other (a
    /// fresh child label cannot form a cycle).
    pub fn sample(
        &self,
        rng: &mut SeededRng,
        zipf: &Zipf,
        vocab: &Vocab,
        label_space: &str,
        write_seq: &mut u64,
    ) -> (&'static str, Request) {
        let u = rng.next_unit();
        let op = self
            .mix()
            .iter()
            .find(|(_, cum)| u < *cum)
            .map(|(op, _)| *op)
            .unwrap_or_else(|| self.mix().last().expect("mix is non-empty").0);
        fn pick(list: &[String], zipf: &Zipf, rng: &mut SeededRng) -> String {
            list[zipf.sample(rng) % list.len()].clone()
        }
        match op {
            Op::Isa => (
                "isa",
                Request::Isa {
                    parent: pick(&vocab.concepts, zipf, rng),
                    child: pick(&vocab.instances, zipf, rng),
                },
            ),
            Op::Typicality => (
                "typicality",
                Request::Typicality {
                    term: pick(&vocab.concepts, zipf, rng),
                    direction: Direction::Instances,
                    k: 10,
                },
            ),
            Op::Plausibility => (
                "plausibility",
                Request::Plausibility {
                    parent: pick(&vocab.concepts, zipf, rng),
                    child: pick(&vocab.instances, zipf, rng),
                },
            ),
            Op::Conceptualize => {
                let terms = vec![
                    pick(&vocab.instances, zipf, rng),
                    pick(&vocab.instances, zipf, rng),
                ];
                ("conceptualize", Request::Conceptualize { terms, k: 8 })
            }
            Op::SearchRewrite => (
                "search-rewrite",
                Request::SearchRewrite {
                    query: pick(&vocab.instances, zipf, rng),
                    k: 5,
                },
            ),
            Op::Levels => (
                "levels",
                Request::Levels {
                    term: Some(pick(&vocab.concepts, zipf, rng)),
                },
            ),
            Op::AddEvidence => {
                *write_seq += 1;
                (
                    "add-evidence",
                    Request::AddEvidence {
                        parent: pick(&vocab.concepts, zipf, rng),
                        child: format!("loadgen-{label_space}-{write_seq}"),
                        count: 1,
                    },
                )
            }
        }
    }
}

/// Which side of the router's fan-out decision an endpoint lands on.
/// Must mirror `probase_router::Router`'s classification: label-keyed
/// endpoints route to one shard, everything else scatter-gathers.
pub fn query_class(endpoint: &str) -> &'static str {
    match endpoint {
        "isa" | "typicality" | "plausibility" | "levels" | "add-evidence" => "single-shard",
        _ => "scatter-gather",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocab {
        Vocab {
            concepts: vec!["country".to_string(), "company".to_string()],
            instances: vec!["China".to_string(), "Microsoft".to_string()],
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = SeededRng::new(7);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            let r = zipf.sample(&mut rng);
            assert!(r < 100);
            counts[r] += 1;
        }
        assert!(
            counts[0] > counts[10],
            "rank 0 should be hotter than rank 10"
        );
        assert!(counts[0] > 10_000 / 100, "rank 0 should beat uniform share");
    }

    #[test]
    fn every_mix_is_a_cdf_ending_at_one() {
        for profile in PROFILES {
            let mix = profile.mix();
            let mut prev = 0.0;
            for (_, cum) in mix {
                assert!(*cum > prev, "{profile:?}: non-increasing row {cum}");
                prev = *cum;
            }
            assert_eq!(prev, 1.0, "{profile:?}: mix must end at 1.0");
        }
    }

    #[test]
    fn profile_names_round_trip() {
        for profile in PROFILES {
            assert_eq!(Profile::parse(profile.name()), Ok(profile));
        }
        assert!(Profile::parse("bogus").is_err());
    }

    #[test]
    fn write_fractions_match_observed_mix() {
        let v = vocab();
        let zipf = Zipf::new(2, 1.0);
        for profile in PROFILES {
            let mut rng = SeededRng::new(11);
            let mut writes = 0u64;
            let mut seq = 0u64;
            const N: u64 = 20_000;
            for _ in 0..N {
                let (name, _) = profile.sample(&mut rng, &zipf, &v, "t", &mut seq);
                if name == "add-evidence" {
                    writes += 1;
                }
            }
            let observed = writes as f64 / N as f64;
            let expected = profile.write_fraction();
            assert!(
                (observed - expected).abs() < 0.02,
                "{profile:?}: observed write fraction {observed:.3} vs {expected:.3}"
            );
        }
    }

    #[test]
    fn write_children_are_unique_and_namespaced() {
        let v = vocab();
        let zipf = Zipf::new(2, 1.0);
        let mut rng = SeededRng::new(5);
        let mut seq = 0u64;
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2_000 {
            let (name, req) = Profile::WriteHeavy.sample(&mut rng, &zipf, &v, "w0", &mut seq);
            if let Request::AddEvidence { child, .. } = req {
                assert_eq!(name, "add-evidence");
                assert!(child.starts_with("loadgen-w0-"), "{child}");
                assert!(seen.insert(child), "duplicate write child");
            }
        }
        assert!(!seen.is_empty());
    }

    /// The per-class report is only honest if its endpoint → class
    /// mapping matches the router's actual fan-out rule. Cross-check
    /// every request a profile can produce against that rule.
    #[test]
    fn query_class_matches_router_fanout_rule() {
        let v = vocab();
        let zipf = Zipf::new(2, 1.0);
        let mut seen = std::collections::BTreeSet::new();
        for profile in PROFILES {
            let mut rng = SeededRng::new(9);
            let mut seq = 0u64;
            for _ in 0..500 {
                let (name, req) = profile.sample(&mut rng, &zipf, &v, "t", &mut seq);
                seen.insert(name);
                // The router's classification (engine.rs): these route to
                // one shard, everything else scatter-gathers.
                let single = matches!(
                    req,
                    Request::Isa { .. }
                        | Request::Plausibility { .. }
                        | Request::Typicality { .. }
                        | Request::Levels { term: Some(_) }
                        | Request::AddEvidence { .. }
                );
                let expected = if single {
                    "single-shard"
                } else {
                    "scatter-gather"
                };
                assert_eq!(query_class(name), expected, "endpoint {name}");
            }
        }
        assert!(seen.len() >= 7, "profiles should cover all endpoints");
    }
}
