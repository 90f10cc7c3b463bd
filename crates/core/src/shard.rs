//! Fleet-sharded, worker-pool execution of the manifestation analysis.
//!
//! The paper evaluates 40 apps with ~30 volunteers each; the ROADMAP
//! target is millions of users. At that scale the fleet cannot be
//! analyzed as one sequential pass, so the 5-step pipeline is split
//! along its natural data-parallel seams:
//!
//! ```text
//!        map (per trace, worker pool)          merge           analyze (per group / per trace)
//! traces ──────────────────────────▶ ShardPartial ⊕ ShardPartial ──▶ analyze ──▶ render ──▶ DiagnosisReport
//!   sanitize + intern + group tables    associative merge        Steps 2–5, ids only    names resolved
//! ```
//!
//! - **Map** ([`EnergyDx::map_shard`]): Step 1–2 per-trace work —
//!   sanitation and event interning — runs on the [`crate::par`] worker
//!   pool and folds into a [`ShardPartial`]. From here on the hot path
//!   carries [`InternedTrace`]s (dense `u32` event ids, no per-instance
//!   strings) and group populations in a `Vec` indexed by [`EventId`].
//! - **Merge** ([`ShardPartial::merge`]): partials carry their global
//!   trace offsets and a *canonical* (name-sorted) [`EventInterner`],
//!   so shards of the fleet can be mapped on different workers (or
//!   different machines) and combined in **any order** — vocabularies
//!   union into the same sorted interner from either side, ids are
//!   remapped with a stable table, and the merge stays associative and
//!   commutative with [`ShardPartial::empty`] as identity.
//! - **Analyze** ([`EnergyDx::analyze`]): Steps 2–5 run over the merged
//!   partial — per *event group* for the sort-once statistics cache
//!   ([`GroupStatCache`], one [`SortedGroup`] sort serving ranks, base
//!   percentile, and median), per *trace* for normalization, detection,
//!   and the Step-5 window scan — entirely on interned ids.
//! - **Render** ([`EnergyDx::render`]): the only step that touches
//!   strings again — event names are resolved at the report boundary.
//!   [`EnergyDx::finish`] is analyze-then-render. A served answer skips
//!   the report: [`EnergyDx::render_json`] writes its canonical JSON
//!   straight from the analysis, by reference.
//!
//! The headline guarantee, enforced by `tests/diff_harness.rs` and the
//! golden reports under `tests/golden/`, is that sequential, parallel,
//! and sharded-then-merged execution produce **byte-identical**
//! [`DiagnosisReport`]s: every parallel unit is a pure function of its
//! inputs, every merge combines exact values (integer counts, `usize`
//! minima, order-preserving concatenation, id remaps), and results are
//! reassembled in input order.

use crate::config::AnalysisConfig;
use crate::json::{self, Escaped, JsonWriter};
use crate::pipeline::{
    detect_series, normalize_interned, sort_ranked_events,
    trace_impact_interned, EnergyDx,
};
use crate::report::{
    AnalysisStats, DiagnosisReport, ManifestationPoint, RankedEvent,
    SkippedTrace, TraceAnalysis,
};
use energydx_stats::SortedGroup;
use energydx_trace::intern::{EventId, EventInterner, InternedTrace};
use energydx_trace::join::PoweredInstance;
use std::collections::BTreeMap;

/// A fleet analysis partial: one or more runs of contiguous traces
/// after the per-trace map phase (sanitation + event interning), plus
/// the canonical vocabulary those runs are interned against.
///
/// Partials merge associatively and commutatively; [`EnergyDx::finish`]
/// requires the merged result to cover a contiguous fleet starting at
/// trace 0.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardPartial {
    /// The canonical (name-sorted) vocabulary every segment's ids and
    /// group tables are expressed in. Canonical order is what makes
    /// merged partials structurally equal regardless of merge order.
    interner: EventInterner,
    /// Disjoint segments keyed by their first global trace index.
    segments: BTreeMap<usize, Segment>,
}

/// Per-instance bytes in a partial: `u32` id + `f64` power in the
/// trace columns, plus the `f64` copy in the group table.
const INSTANCE_BYTES: usize = 4 + 8 + 8;
/// Flat per-trace container overhead (two `Vec` headers).
const TRACE_OVERHEAD: usize = 48;
/// Flat per-segment overhead (offset, three `Vec` headers, map node).
const SEGMENT_OVERHEAD: usize = 64;
/// Flat per-vocabulary-name overhead (`String` header + index entry).
const NAME_OVERHEAD: usize = 64;
/// Per-skip-entry bytes (two `usize`s).
const SKIP_BYTES: usize = 16;

/// One contiguous run of mapped traces.
#[derive(Debug, Clone, PartialEq)]
struct Segment {
    offset: usize,
    /// Sanitized interned traces (corrupt ones emptied, slots kept).
    traces: Vec<InternedTrace>,
    /// `(global index, non-finite count)` of emptied traces, ascending.
    skipped: Vec<(usize, usize)>,
    /// Per-event power populations of this segment in trace order,
    /// indexed by [`EventId`]; events absent from this segment hold an
    /// empty vector.
    groups: Vec<Vec<f64>>,
}

impl Segment {
    fn end(&self) -> usize {
        self.offset + self.traces.len()
    }

    /// Appends an adjacent segment (`next.offset == self.end()`),
    /// expressed in the same vocabulary.
    fn absorb(&mut self, next: Segment) {
        debug_assert_eq!(self.end(), next.offset);
        debug_assert_eq!(self.groups.len(), next.groups.len());
        for (mine, theirs) in self.groups.iter_mut().zip(next.groups) {
            mine.extend(theirs);
        }
        self.traces.extend(next.traces);
        self.skipped.extend(next.skipped);
    }

    /// Rewrites the segment into a larger vocabulary: trace ids go
    /// through `remap` and the group table is re-scattered to `vocab`
    /// slots (the remap is injective, so no populations collide).
    fn remap(&mut self, remap: &[u32], vocab: usize) {
        for trace in &mut self.traces {
            trace.remap(remap);
        }
        let old = std::mem::take(&mut self.groups);
        self.groups = vec![Vec::new(); vocab];
        for (old_id, powers) in old.into_iter().enumerate() {
            self.groups[remap[old_id] as usize] = powers;
        }
    }
}

impl ShardPartial {
    /// The identity partial: merging it into anything is a no-op.
    pub fn empty() -> Self {
        ShardPartial::default()
    }

    /// Number of traces covered (across all segments).
    pub fn trace_count(&self) -> usize {
        self.segments.values().map(|s| s.traces.len()).sum()
    }

    /// Whether this is the identity partial — no traces, no
    /// vocabulary. `merge` with an empty partial (from either side) is
    /// a no-op, which is what lets a fold start from
    /// [`ShardPartial::empty`] without special-casing the seed.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty() && self.interner.is_empty()
    }

    /// Distinct event names across the covered traces.
    pub fn vocabulary(&self) -> &[String] {
        self.interner.names()
    }

    /// Global offset of the first covered trace (`0` when empty).
    pub fn start_offset(&self) -> usize {
        self.segments.keys().next().copied().unwrap_or(0)
    }

    /// One past the last covered trace index (`0` when empty).
    pub fn end_offset(&self) -> usize {
        self.segments.values().next_back().map_or(0, Segment::end)
    }

    /// Deterministic estimate of the partial's resident size in
    /// bytes, for spill budget accounting. The formula is a fixed
    /// function of the partial's shape — per-instance column widths
    /// (id + power + group entry), flat per-trace / per-segment /
    /// per-name container overheads — so two identical partials always
    /// account identically, on any platform. It intentionally ignores
    /// allocator slack; budget margins live with the caller.
    ///
    /// Instances are counted from the group tables, which hold one
    /// entry per instance of the segment's traces, so the cost is
    /// O(segments × vocabulary), not O(traces).
    pub fn approx_bytes(&self) -> usize {
        let names: usize = self
            .interner
            .names()
            .iter()
            .map(|n| n.len() + NAME_OVERHEAD)
            .sum();
        let segments: usize = self
            .segments
            .values()
            .map(|s| {
                let instances: usize = s.groups.iter().map(Vec::len).sum();
                SEGMENT_OVERHEAD
                    + s.traces.len() * TRACE_OVERHEAD
                    + instances * INSTANCE_BYTES
                    + s.skipped.len() * SKIP_BYTES
            })
            .sum();
        names + segments
    }

    /// Whether the partial covers one contiguous run starting at trace
    /// 0 (vacuously true when empty), i.e. is ready for
    /// [`EnergyDx::finish`].
    pub fn is_complete(&self) -> bool {
        match self.segments.len() {
            0 => true,
            1 => self.segments.contains_key(&0),
            _ => false,
        }
    }

    /// Merges another partial into this one. Associative and
    /// commutative: vocabularies union into the same canonical
    /// interner from either side (ids remapped stably), segments are
    /// keyed by global trace offset, and adjacent runs are coalesced
    /// by order-preserving concatenation — so any merge tree over a
    /// partition of the fleet produces the same partial, structurally.
    ///
    /// When every name of `other` is already in this partial's
    /// vocabulary, the canonical union *is* this vocabulary, so only
    /// `other`'s segments are remapped: merging a one-trace delta into
    /// a large partial costs O(delta + vocabulary), not O(receiver).
    ///
    /// # Panics
    ///
    /// Panics if the two partials cover overlapping trace ranges —
    /// that is a caller error (the same shard merged twice), not a
    /// data-quality condition.
    pub fn merge(mut self, other: ShardPartial) -> ShardPartial {
        if self.segments.is_empty() {
            self.interner = other.interner;
            self.segments = other.segments;
        } else if other.segments.is_empty() {
            // Nothing to fold in; the vocabulary stays ours.
        } else if self.interner == other.interner {
            // Identical vocabularies (the common case when shards of
            // one app merge): no remap needed.
            for (_, segment) in other.segments {
                self.insert(segment);
            }
        } else if let Some(remap) = self.embedding(&other.interner) {
            let vocab = self.interner.len();
            for (_, mut segment) in other.segments {
                segment.remap(&remap, vocab);
                self.insert(segment);
            }
        } else {
            let (union, remap_self, remap_other) =
                EventInterner::union(&self.interner, &other.interner);
            let vocab = union.len();
            for segment in self.segments.values_mut() {
                segment.remap(&remap_self, vocab);
            }
            self.interner = union;
            for (_, mut segment) in other.segments {
                segment.remap(&remap_other, vocab);
                self.insert(segment);
            }
        }
        self.coalesce();
        self
    }

    /// The ids `sub`'s names have in this partial's vocabulary, indexed
    /// by `sub`'s ids; `None` when some name is missing here.
    fn embedding(&self, sub: &EventInterner) -> Option<Vec<u32>> {
        sub.names()
            .iter()
            .map(|name| self.interner.get(name).map(|id| id.index() as u32))
            .collect()
    }

    fn insert(&mut self, segment: Segment) {
        if segment.traces.is_empty() {
            return;
        }
        if let Some((_, prev)) =
            self.segments.range(..=segment.offset).next_back()
        {
            assert!(
                prev.end() <= segment.offset,
                "overlapping shard partials: [{}, {}) and [{}, {})",
                prev.offset,
                prev.end(),
                segment.offset,
                segment.end(),
            );
        }
        if let Some((&next_off, _)) =
            self.segments.range(segment.offset..).next()
        {
            assert!(
                segment.end() <= next_off,
                "overlapping shard partials at offset {}",
                segment.offset,
            );
        }
        self.segments.insert(segment.offset, segment);
    }

    fn coalesce(&mut self) {
        let old = std::mem::take(&mut self.segments);
        let mut merged: Vec<Segment> = Vec::with_capacity(old.len());
        for segment in old.into_values() {
            match merged.last_mut() {
                Some(prev) if prev.end() == segment.offset => {
                    prev.absorb(segment);
                }
                _ => merged.push(segment),
            }
        }
        self.segments = merged.into_iter().map(|s| (s.offset, s)).collect();
    }

    /// Shifts every segment (and the global indices of its skipped
    /// traces) right by `base` traces. A worker that mapped its
    /// partition with local offsets `0..n` can be placed after `base`
    /// traces owned by other workers: `map_shard(ts, base)` equals
    /// `map_shard(ts, 0).rebase(base)`, structurally. This is what
    /// lets a cluster coordinator concatenate per-worker partials into
    /// one contiguous fleet without the workers agreeing on global
    /// offsets up front.
    pub fn rebase(mut self, base: usize) -> ShardPartial {
        if base == 0 {
            return self;
        }
        let old = std::mem::take(&mut self.segments);
        self.segments = old
            .into_values()
            .map(|mut segment| {
                segment.offset += base;
                for entry in &mut segment.skipped {
                    entry.0 += base;
                }
                (segment.offset, segment)
            })
            .collect();
        self
    }

    /// Moves the partial so its first segment starts at `new_start`,
    /// shifting every segment (and skipped index) by the same amount
    /// — down as well as up, which [`rebase`](Self::rebase) cannot do.
    /// Like `rebase` this is pure offset arithmetic: populations and
    /// interner are untouched, so extracting one version's run from
    /// the middle of a versioned epoch and re-anchoring it at its
    /// version-local offset is byte-exact. No-op on an empty partial.
    ///
    /// # Panics
    ///
    /// Panics if shifting down would move a skipped-trace index below
    /// zero while its segment stays representable (cannot happen for
    /// partials built by `map_shard`, whose skipped indices all lie
    /// inside their segment).
    pub fn rebase_to(self, new_start: usize) -> ShardPartial {
        let Some(first) = self.segments.keys().next().copied() else {
            return self;
        };
        if new_start >= first {
            self.rebase(new_start - first)
        } else {
            let delta = first - new_start;
            let mut shifted = self;
            let old = std::mem::take(&mut shifted.segments);
            shifted.segments = old
                .into_values()
                .map(|mut segment| {
                    segment.offset -= delta;
                    for entry in &mut segment.skipped {
                        entry.0 -= delta;
                    }
                    (segment.offset, segment)
                })
                .collect();
            shifted
        }
    }
}

/// Why a merged partial could not be finished into a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The partial does not cover a contiguous fleet starting at trace
    /// 0; some shard was never mapped or merged in.
    IncompleteFleet {
        /// First trace indices of the runs that are present.
        covered: Vec<usize>,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::IncompleteFleet { covered } => write!(
                f,
                "shard partial is not a contiguous fleet from trace 0 \
                 (segments start at {covered:?})"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// A [`ShardPartial`] disassembled into plain, serializable pieces:
/// the canonical vocabulary plus each segment's traces and skip list.
///
/// Group tables are deliberately absent — they are a pure function of
/// the traces and are rebuilt on [`ShardPartial::from_parts`], so a
/// checkpoint cannot smuggle in populations that disagree with the
/// traces they were derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPartialParts {
    /// The vocabulary in canonical (ascending name) order.
    pub names: Vec<String>,
    /// The segments, ascending by offset.
    pub segments: Vec<SegmentParts>,
}

/// One contiguous run of traces, disassembled.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentParts {
    /// Global index of the first trace.
    pub offset: usize,
    /// The interned traces (emptied slots kept).
    pub traces: Vec<InternedTrace>,
    /// `(global index, non-finite count)` of emptied traces.
    pub skipped: Vec<(usize, usize)>,
}

/// Why a [`ShardPartialParts`] value does not describe a valid
/// partial. Returned — never panicked — by
/// [`ShardPartial::from_parts`], so a corrupt or adversarial
/// checkpoint surfaces as a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartsError {
    /// The vocabulary is not sorted strictly ascending.
    VocabularyNotCanonical,
    /// A trace references an event id outside the vocabulary.
    IdOutOfRange {
        /// Global index of the offending trace.
        trace: usize,
        /// The out-of-range id.
        id: usize,
        /// The vocabulary size it had to fit under.
        vocab: usize,
    },
    /// Two segments cover overlapping trace ranges.
    OverlappingSegments {
        /// Offset of the first segment involved.
        first: usize,
        /// Offset of the second segment involved.
        second: usize,
    },
    /// A skip entry points outside its segment's trace range.
    SkippedOutOfSegment {
        /// The skip entry's global trace index.
        index: usize,
    },
    /// A skip entry names a trace that still has instances, or a
    /// non-positive non-finite count.
    SkippedNotEmptied {
        /// The skip entry's global trace index.
        index: usize,
    },
    /// A segment's trace range runs past `usize::MAX`.
    RangeOverflow {
        /// The segment's offset.
        offset: usize,
        /// Its trace count.
        traces: usize,
    },
    /// A trace holds a NaN or infinite power. Mapping empties such a
    /// trace into its segment's skip list, so no partial holds one.
    NonFinitePower {
        /// Global index of the offending trace.
        trace: usize,
    },
}

impl std::fmt::Display for PartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartsError::VocabularyNotCanonical => {
                write!(f, "vocabulary is not sorted strictly ascending")
            }
            PartsError::IdOutOfRange { trace, id, vocab } => write!(
                f,
                "trace {trace} references event id {id} outside the \
                 vocabulary of {vocab}"
            ),
            PartsError::OverlappingSegments { first, second } => {
                write!(f, "segments at offsets {first} and {second} overlap")
            }
            PartsError::SkippedOutOfSegment { index } => {
                write!(f, "skip entry {index} lies outside its segment")
            }
            PartsError::SkippedNotEmptied { index } => write!(
                f,
                "skip entry {index} names a trace that was not emptied \
                 (or a zero non-finite count)"
            ),
            PartsError::RangeOverflow { offset, traces } => write!(
                f,
                "a segment of {traces} trace(s) at offset {offset} runs \
                 past the largest trace index"
            ),
            PartsError::NonFinitePower { trace } => {
                write!(f, "trace {trace} holds a non-finite power")
            }
        }
    }
}

impl std::error::Error for PartsError {}

impl ShardPartial {
    /// Disassembles the partial into serializable parts; the inverse
    /// of [`ShardPartial::from_parts`].
    pub fn to_parts(&self) -> ShardPartialParts {
        ShardPartialParts {
            names: self.interner.names().to_vec(),
            segments: self
                .segments
                .values()
                .map(|s| SegmentParts {
                    offset: s.offset,
                    traces: s.traces.clone(),
                    skipped: s.skipped.clone(),
                })
                .collect(),
        }
    }

    /// Reassembles a partial from parts, validating every structural
    /// invariant the rest of the pipeline assumes: canonical
    /// vocabulary, in-range event ids, finite powers, disjoint
    /// segments whose ranges fit in `usize`, and skip entries that
    /// point at emptied traces inside their segment.
    /// Traces and skip lists are moved in, not copied; group tables
    /// are rebuilt from the traces, each allocated once at its size.
    ///
    /// # Errors
    ///
    /// Returns a [`PartsError`] naming the first violated invariant;
    /// this function never panics on malformed input, which is what
    /// makes it safe to feed from an untrusted checkpoint file.
    pub fn from_parts(
        parts: ShardPartialParts,
    ) -> Result<ShardPartial, PartsError> {
        let sorted = parts.names.windows(2).all(|w| w[0] < w[1]);
        if !sorted {
            return Err(PartsError::VocabularyNotCanonical);
        }
        let mut interner = EventInterner::new();
        for name in &parts.names {
            interner.intern(name);
        }
        let vocab = interner.len();

        let mut partial = ShardPartial {
            interner,
            segments: BTreeMap::new(),
        };
        let mut prev_range: Option<(usize, usize)> = None;
        let mut by_offset = parts.segments;
        by_offset.sort_by_key(|s| s.offset);
        // Instances per event id in the segment at hand, counted while
        // its traces are validated, so each group is allocated once.
        let mut sizes = vec![0usize; vocab];
        for seg in by_offset {
            let end = seg.offset.checked_add(seg.traces.len()).ok_or(
                PartsError::RangeOverflow {
                    offset: seg.offset,
                    traces: seg.traces.len(),
                },
            )?;
            if let Some((prev_off, prev_end)) = prev_range {
                if seg.offset < prev_end {
                    return Err(PartsError::OverlappingSegments {
                        first: prev_off,
                        second: seg.offset,
                    });
                }
            }
            if !seg.traces.is_empty() {
                prev_range = Some((seg.offset, end));
            }
            sizes.fill(0);
            for (i, trace) in seg.traces.iter().enumerate() {
                for (id, mw) in trace.ids().iter().zip(trace.powers()) {
                    if id.index() >= vocab {
                        return Err(PartsError::IdOutOfRange {
                            trace: seg.offset + i,
                            id: id.index(),
                            vocab,
                        });
                    }
                    if !mw.is_finite() {
                        return Err(PartsError::NonFinitePower {
                            trace: seg.offset + i,
                        });
                    }
                    sizes[id.index()] += 1;
                }
            }
            let mut prev_skip: Option<usize> = None;
            for &(index, count) in &seg.skipped {
                if index < seg.offset
                    || index >= end
                    || prev_skip.is_some_and(|p| index <= p)
                {
                    return Err(PartsError::SkippedOutOfSegment { index });
                }
                if count == 0 || !seg.traces[index - seg.offset].is_empty() {
                    return Err(PartsError::SkippedNotEmptied { index });
                }
                prev_skip = Some(index);
            }
            if seg.traces.is_empty() {
                continue;
            }
            let mut groups: Vec<Vec<f64>> =
                sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
            for trace in &seg.traces {
                for (&id, &mw) in trace.ids().iter().zip(trace.powers()) {
                    groups[id.index()].push(mw);
                }
            }
            partial.segments.insert(
                seg.offset,
                Segment {
                    offset: seg.offset,
                    traces: seg.traces,
                    skipped: seg.skipped,
                    groups,
                },
            );
        }
        partial.coalesce();
        Ok(partial)
    }
}

/// The memoized per-event-group statistics cache shared by Steps 2–3,
/// indexed densely by [`EventId`].
///
/// Each event group's power population is sorted **once** (via
/// [`SortedGroup`]); the Step-2 rank vector and the Step-3
/// normalization base (configured percentile, median-guarded) are both
/// served from that single sorted view and reused for every trace,
/// instead of being re-sorted per statistic as the textbook pipeline
/// does. Built on the worker pool, one task per event group.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupStatCache {
    /// One entry per vocabulary id.
    stats: Vec<GroupStat>,
}

/// Per-event-group derived statistics.
#[derive(Debug, Clone, PartialEq)]
struct GroupStat {
    /// Step-2 average ranks, `None` for a degenerate group.
    ranks: Option<Vec<f64>>,
    /// Step-3 normalization base, `None` for a degenerate group.
    base: Option<f64>,
}

impl GroupStatCache {
    /// Builds the cache from merged dense group populations (one slot
    /// per vocabulary id), one worker-pool task per event group.
    pub fn build(
        groups: &[Vec<f64>],
        config: &AnalysisConfig,
        jobs: usize,
    ) -> Self {
        GroupStatCache {
            stats: crate::par::par_map(groups, jobs, |_, powers| {
                GroupStat::compute(powers, config)
            }),
        }
    }

    /// Event groups in the cache (the vocabulary size).
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Groups whose statistics could not be computed (NaN smuggled
    /// past sanitation, or an empty population).
    pub fn degenerate_count(&self) -> usize {
        self.stats.iter().filter(|s| s.ranks.is_none()).count()
    }

    /// The Step-3 normalization base per vocabulary id, `None` for
    /// degenerate groups.
    pub fn bases(&self) -> Vec<Option<f64>> {
        self.stats.iter().map(|s| s.base).collect()
    }

    /// The Step-2 rankings per vocabulary id, consuming the cache.
    fn into_rankings(self) -> Vec<Option<Vec<f64>>> {
        self.stats.into_iter().map(|s| s.ranks).collect()
    }
}

impl GroupStat {
    /// One sort of the group population, both derived statistics.
    ///
    /// The base formula must stay bit-identical to
    /// [`crate::pipeline::step3_normalize`]'s computation —
    /// [`SortedGroup`] serves the same bits as independent
    /// `percentile`/`average_ranks` calls on the same population.
    fn compute(powers: &[f64], config: &AnalysisConfig) -> GroupStat {
        let Ok(group) = SortedGroup::new(powers) else {
            return GroupStat {
                ranks: None,
                base: None,
            };
        };
        let ranks = Some(group.average_ranks());
        let base =
            group.percentile(config.base_percentile).ok().and_then(|p| {
                let base = p
                    .max(group.median() * config.base_guard_fraction)
                    .max(config.min_base_mw);
                (base.is_finite() && base > 0.0).then_some(base)
            });
        GroupStat { ranks, base }
    }
}

/// The Step-5 aggregation state: impacted-trace counts and window
/// proximities in a dense table indexed by [`EventId`]. Commutative
/// and associative under [`Step5Partial::absorb_trace`]-style
/// accumulation — counts add, proximities take the `usize` minimum —
/// so traces can be scanned in any order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Step5Partial {
    /// Traces covered, impacted or not (the fraction denominator).
    pub total: usize,
    /// `(impacted-trace count, smallest window distance)` per
    /// vocabulary id; `(0, usize::MAX)` marks an unimpacted event.
    by_event: Vec<(usize, usize)>,
}

impl Step5Partial {
    /// An empty aggregation over a vocabulary of `vocab` events.
    pub fn new(vocab: usize) -> Self {
        Step5Partial {
            total: 0,
            by_event: vec![(0, usize::MAX); vocab],
        }
    }

    /// Folds in one trace's window scan (see
    /// [`crate::pipeline`]'s per-trace Step-5 unit), expressed in this
    /// partial's vocabulary.
    pub fn absorb_trace(&mut self, impact: &[(EventId, usize)]) {
        self.total += 1;
        for &(id, distance) in impact {
            let entry = &mut self.by_event[id.index()];
            entry.0 += 1;
            entry.1 = entry.1.min(distance);
        }
    }

    /// Merges another partial (shard-level Step-5 state over the same
    /// vocabulary) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the vocabularies differ in size — remap both sides to
    /// a common interner first.
    pub fn merge(&mut self, other: Step5Partial) {
        assert_eq!(
            self.by_event.len(),
            other.by_event.len(),
            "Step5Partial vocabularies differ"
        );
        self.total += other.total;
        for (mine, (count, distance)) in
            self.by_event.iter_mut().zip(other.by_event)
        {
            mine.0 += count;
            mine.1 = mine.1.min(distance);
        }
    }

    /// Sorts the aggregated events by closeness to the developer
    /// fraction — the final, inherently global piece of Step 5. Names
    /// are resolved here, at the boundary; the ordering is the shared
    /// total chain of [`crate::pipeline::step5_report`].
    pub fn ranked(
        &self,
        interner: &EventInterner,
        config: &AnalysisConfig,
    ) -> Vec<RankedEvent> {
        if self.total == 0 {
            return Vec::new();
        }
        let total = self.total;
        let mut ranked: Vec<RankedEvent> = self
            .by_event
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, (count, _))| count > 0)
            .map(|(id, (count, proximity))| RankedEvent {
                event: interner.names()[id].clone(),
                impacted_fraction: count as f64 / total as f64,
                proximity,
            })
            .collect();
        sort_ranked_events(&mut ranked, config);
        ranked
    }
}

/// Balanced contiguous shard bounds: `len` traces into at most
/// `shards` runs, each `(start, end)` half-open, first remainders one
/// longer.
///
/// # Examples
///
/// ```
/// # use energydx::shard::shard_bounds;
/// assert_eq!(shard_bounds(5, 2), vec![(0, 3), (3, 5)]);
/// assert_eq!(shard_bounds(2, 8), vec![(0, 1), (1, 2)]);
/// assert!(shard_bounds(0, 3).is_empty());
/// ```
pub fn shard_bounds(len: usize, shards: usize) -> Vec<(usize, usize)> {
    if len == 0 || shards == 0 {
        return Vec::new();
    }
    let shards = shards.min(len);
    let base = len / shards;
    let remainder = len % shards;
    let mut bounds = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < remainder);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// A fully analyzed fleet: everything Steps 2–5 produce, still in
/// interned (id-only) form. [`EnergyDx::render`] turns it into a
/// [`DiagnosisReport`] by resolving names at the boundary, and
/// [`EnergyDx::summarize`] into the per-event
/// [`FleetSummary`](crate::FleetSummary) by reference; keeping
/// analysis apart from both lets callers (the hot-path benchmark in
/// particular) measure it without report materialization.
#[derive(Debug, Clone)]
pub struct AnalyzedFleet {
    pub(crate) interner: EventInterner,
    pub(crate) traces: Vec<InternedTrace>,
    pub(crate) skipped: Vec<(usize, usize)>,
    pub(crate) outcomes: Vec<TraceOutcome>,
    rankings: Vec<Option<Vec<f64>>>,
    pub(crate) step5: Step5Partial,
    degenerate_groups: usize,
}

/// Per-trace analysis products, id-only.
#[derive(Debug, Clone)]
pub(crate) struct TraceOutcome {
    pub(crate) normalized: Vec<f64>,
    pub(crate) amplitudes: Vec<f64>,
    upper_fence: Option<f64>,
    pub(crate) outliers: Vec<usize>,
}

impl AnalyzedFleet {
    /// Number of traces analyzed (including emptied slots).
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Total manifestation points detected across the fleet.
    pub fn detection_count(&self) -> usize {
        self.outcomes.iter().map(|o| o.outliers.len()).sum()
    }

    /// Deterministic estimate of the analyzed fleet's resident size in
    /// bytes, for cache budget accounting — the same shape-based
    /// discipline as [`ShardPartial::approx_bytes`]: per-instance
    /// column widths and flat container overheads, never allocator
    /// slack.
    pub fn approx_bytes(&self) -> usize {
        let names: usize = self
            .interner
            .names()
            .iter()
            .map(|n| n.len() + NAME_OVERHEAD)
            .sum();
        let traces: usize = self
            .traces
            .iter()
            .map(|t| TRACE_OVERHEAD + t.ids().len() * INSTANCE_BYTES)
            .sum();
        let outcomes: usize = self
            .outcomes
            .iter()
            .map(|o| {
                TRACE_OVERHEAD
                    + (o.normalized.len() + o.amplitudes.len()) * 8
                    + o.outliers.len() * 8
            })
            .sum();
        let rankings: usize = self
            .rankings
            .iter()
            .map(|r| TRACE_OVERHEAD + r.as_ref().map_or(0, |v| v.len() * 8))
            .sum();
        names
            + traces
            + outcomes
            + rankings
            + self.skipped.len() * SKIP_BYTES
            + self.step5.by_event.len() * 16
    }

    /// What the analysis skipped or isolated, as the report states it.
    fn stats(&self) -> AnalysisStats {
        AnalysisStats {
            total_traces: self.traces.len(),
            analyzed_traces: self.traces.len() - self.skipped.len(),
            skipped: self
                .skipped
                .iter()
                .map(|&(index, count)| SkippedTrace {
                    index,
                    reason: format!("{count} non-finite power value(s)"),
                })
                .collect(),
            degenerate_groups: self.degenerate_groups,
        }
    }
}

impl EnergyDx {
    /// The map phase: Step-1 per-trace work (sanitation + interning)
    /// over one shard of the fleet, on the worker pool. `offset` is
    /// the global index of the shard's first trace.
    ///
    /// Traces are *interned, not cloned*: each instance contributes a
    /// `u32` id and an `f64` power to the partial; its event string is
    /// looked up against a vocabulary built in one sequential pre-scan
    /// (so interning stays deterministic under any worker count) and
    /// canonicalized to name order.
    pub fn map_shard(
        &self,
        traces: &[Vec<PoweredInstance>],
        offset: usize,
    ) -> ShardPartial {
        let _span = self.metrics.span("map");
        let non_finite: Vec<usize> =
            crate::par::par_map(traces, self.jobs(), |_, trace| {
                trace.iter().filter(|p| !p.power_mw.is_finite()).count()
            });
        // Sequential vocabulary pre-scan over clean traces; corrupt
        // traces are excluded exactly as their populations are.
        let mut interner = EventInterner::new();
        for (trace, &bad) in traces.iter().zip(&non_finite) {
            if bad == 0 {
                for p in trace {
                    interner.intern(&p.instance.event);
                }
            }
        }
        // No ids are issued yet, so the canonicalization remap is
        // dropped; workers below intern against the sorted vocabulary.
        interner.canonicalize();
        let interned: Vec<InternedTrace> =
            crate::par::par_map(traces, self.jobs(), |i, trace| {
                if non_finite[i] > 0 {
                    InternedTrace::default()
                } else {
                    InternedTrace::from_powered_in(trace, &interner)
                }
            });
        let mut groups: Vec<Vec<f64>> = vec![Vec::new(); interner.len()];
        for trace in &interned {
            for (&id, &mw) in trace.ids().iter().zip(trace.powers()) {
                groups[id.index()].push(mw);
            }
        }
        let skipped: Vec<(usize, usize)> = non_finite
            .iter()
            .enumerate()
            .filter(|&(_, &bad)| bad > 0)
            .map(|(i, &bad)| (offset + i, bad))
            .collect();
        let mut partial = ShardPartial {
            interner,
            segments: BTreeMap::new(),
        };
        partial.insert(Segment {
            offset,
            traces: interned,
            skipped,
            groups,
        });
        partial
    }

    /// The reduce phase, analysis half: Steps 2–5 over a merged
    /// partial covering the whole fleet, entirely on interned ids.
    /// Per-group and per-trace work runs on the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::IncompleteFleet`] if the partial's
    /// segments do not form one contiguous run starting at trace 0.
    pub fn analyze(
        &self,
        partial: ShardPartial,
    ) -> Result<AnalyzedFleet, ShardError> {
        let _span = self.metrics.span("analyze");
        if !partial.is_complete() {
            return Err(ShardError::IncompleteFleet {
                covered: partial.segments.keys().copied().collect(),
            });
        }
        let interner = partial.interner;
        let (traces, skipped, groups) =
            match partial.segments.into_values().next() {
                Some(segment) => {
                    (segment.traces, segment.skipped, segment.groups)
                }
                None => (Vec::new(), Vec::new(), Vec::new()),
            };
        let config = self.config();
        let cache = GroupStatCache::build(&groups, config, self.jobs());
        // The cache's sorted views hold all Steps 2–5 still need of the
        // populations: free them before the per-trace pass.
        drop(groups);
        let bases = cache.bases();

        let per_trace =
            crate::par::par_map(&traces, self.jobs(), |_, trace| {
                let normalized = normalize_interned(trace, &bases, config);
                let (amplitudes, fences, outliers) =
                    detect_series(&normalized, config);
                let impact = trace_impact_interned(trace, &outliers, config);
                let outcome = TraceOutcome {
                    normalized,
                    amplitudes,
                    upper_fence: fences.map(|f| f.upper),
                    outliers,
                };
                (outcome, impact)
            });

        let mut step5 = Step5Partial::new(interner.len());
        let mut outcomes = Vec::with_capacity(per_trace.len());
        for (outcome, impact) in per_trace {
            step5.absorb_trace(&impact);
            outcomes.push(outcome);
        }

        Ok(AnalyzedFleet {
            degenerate_groups: cache.degenerate_count(),
            rankings: cache.into_rankings(),
            interner,
            traces,
            skipped,
            outcomes,
            step5,
        })
    }

    /// The reduce phase, rendering half: resolves interned ids back to
    /// event names and assembles the [`DiagnosisReport`]. This is the
    /// only place the hot path allocates strings again.
    pub fn render(&self, fleet: AnalyzedFleet) -> DiagnosisReport {
        let _span = self.metrics.span("render");
        let stats = fleet.stats();
        let AnalyzedFleet {
            interner,
            traces,
            outcomes,
            rankings,
            step5,
            ..
        } = fleet;
        let config = self.config();

        let ranked_events = step5.ranked(&interner, config);

        // The interner is canonical (name-sorted), so id order *is*
        // BTreeMap key order; the map is built without re-sorting.
        let rankings: BTreeMap<String, Vec<f64>> = rankings
            .into_iter()
            .enumerate()
            .filter_map(|(id, ranks)| {
                Some((interner.names()[id].clone(), ranks?))
            })
            .collect();

        let trace_analyses: Vec<TraceAnalysis> = traces
            .iter()
            .zip(outcomes)
            .map(|(trace, outcome)| {
                let manifestation_points = outcome
                    .outliers
                    .iter()
                    .map(|&idx| ManifestationPoint {
                        instance_index: idx,
                        event: interner.resolve(trace.ids()[idx]).to_owned(),
                        amplitude: outcome.amplitudes[idx],
                    })
                    .collect();
                TraceAnalysis {
                    raw_power_mw: trace.powers().to_vec(),
                    events: trace
                        .ids()
                        .iter()
                        .map(|&id| interner.resolve(id).to_owned())
                        .collect(),
                    normalized_power: outcome.normalized,
                    amplitudes: outcome.amplitudes,
                    upper_fence: outcome.upper_fence,
                    manifestation_points,
                }
            })
            .collect();

        DiagnosisReport {
            traces: trace_analyses,
            events: ranked_events,
            rankings,
            top_k: config.top_k,
            stats,
        }
    }

    /// The canonical JSON of the report [`EnergyDx::render`] would
    /// build — `self.render(fleet).to_canonical_json()`, byte for byte
    /// — written straight from the analyzed fleet, by reference: each
    /// event name is escaped once per id, and no report or
    /// per-instance string is built. The serving path of a `Diagnose`.
    pub fn render_json(&self, fleet: &AnalyzedFleet) -> String {
        let _span = self.metrics.span("render");
        let names: Vec<String> = fleet
            .interner
            .names()
            .iter()
            .map(|n| json::escaped(n))
            .collect();
        let name = |id: EventId| Escaped(&names[id.index()]);
        let mut w = JsonWriter::new();
        json::write_report(
            &mut w,
            fleet.traces.iter().zip(&fleet.outcomes),
            |w, (trace, outcome)| {
                json::trace_json(
                    w,
                    trace.powers(),
                    trace.ids().iter().map(|&id| name(id)),
                    &outcome.normalized,
                    &outcome.amplitudes,
                    outcome.upper_fence,
                    outcome.outliers.iter().map(|&idx| {
                        (idx, name(trace.ids()[idx]), outcome.amplitudes[idx])
                    }),
                );
            },
            &fleet.step5.ranked(&fleet.interner, self.config()),
            fleet.rankings.iter().enumerate().filter_map(|(id, ranks)| {
                Some((Escaped(&names[id]), ranks.as_deref()?))
            }),
            self.config().top_k,
            &fleet.stats(),
        );
        w.into_line()
    }

    /// The full reduce phase: [`EnergyDx::analyze`] then
    /// [`EnergyDx::render`]. The result is byte-identical to
    /// [`EnergyDx::diagnose_reference`] on the same fleet.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::IncompleteFleet`] if the partial's
    /// segments do not form one contiguous run starting at trace 0.
    pub fn finish(
        &self,
        partial: ShardPartial,
    ) -> Result<DiagnosisReport, ShardError> {
        let _span = self.metrics.span("finish");
        Ok(self.render(self.analyze(partial)?))
    }

    /// Diagnoses the fleet in `shards` independent shards whose
    /// partials are then merged and finished — the distributed-backend
    /// dataflow, exercised end-to-end on one machine. Byte-identical to
    /// [`EnergyDx::diagnose`] for every shard count.
    pub fn diagnose_sharded(
        &self,
        input: &crate::input::DiagnosisInput,
        shards: usize,
    ) -> DiagnosisReport {
        let traces = input.traces();
        let partials: Vec<ShardPartial> = shard_bounds(traces.len(), shards)
            .into_iter()
            .map(|(start, end)| self.map_shard(&traces[start..end], start))
            .collect();
        let partial = {
            let _span = self.metrics.span("merge");
            partials
                .into_iter()
                .fold(ShardPartial::empty(), ShardPartial::merge)
        };
        self.finish(partial)
            .expect("a partition of the fleet merges to a complete partial")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::DiagnosisInput;
    use energydx_trace::event::EventInstance;

    fn instance(event: &str, start: u64, mw: f64) -> PoweredInstance {
        PoweredInstance {
            instance: EventInstance::new(event, start, start + 10),
            power_mw: mw,
        }
    }

    fn fleet() -> DiagnosisInput {
        let mut traces: Vec<Vec<PoweredInstance>> = (0..7)
            .map(|t| {
                (0..30)
                    .map(|i| {
                        instance(
                            if i % 7 == 0 { "B" } else { "A" },
                            i * 500,
                            100.0 + ((i + t) % 4) as f64,
                        )
                    })
                    .collect()
            })
            .collect();
        for p in traces[2].iter_mut().skip(14) {
            p.power_mw *= 6.0;
        }
        traces[5][3].power_mw = f64::NAN;
        DiagnosisInput::new(traces)
    }

    #[test]
    fn sharded_equals_reference_for_every_shard_count() {
        let input = fleet();
        let dx = EnergyDx::default();
        let reference = dx.diagnose_reference(&input);
        for shards in 1..=8 {
            assert_eq!(
                dx.diagnose_sharded(&input, shards),
                reference,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn rebase_equals_mapping_at_the_shifted_offset() {
        let input = fleet();
        let dx = EnergyDx::default();
        let traces = input.traces();
        for (start, end) in shard_bounds(traces.len(), 3) {
            let local = dx.map_shard(&traces[start..end], 0);
            let global = dx.map_shard(&traces[start..end], start);
            assert_eq!(local.rebase(start), global, "shard [{start}, {end})");
        }
    }

    #[test]
    fn rebase_zero_is_identity_and_rebased_shards_concatenate() {
        let input = fleet();
        let dx = EnergyDx::default();
        let traces = input.traces();
        let mut merged = ShardPartial::empty();
        let mut base = 0;
        for (start, end) in shard_bounds(traces.len(), 3) {
            // Each worker maps its slice with local offsets 0..n; the
            // coordinator places it after everything merged so far.
            let local = dx.map_shard(&traces[start..end], 0);
            assert_eq!(local.clone().rebase(0), local);
            merged = merged.merge(local.rebase(base));
            base = merged.trace_count();
        }
        assert!(merged.is_complete());
        assert_eq!(dx.finish(merged).unwrap(), dx.diagnose_reference(&input));
    }

    #[test]
    fn rebase_to_reanchors_in_both_directions() {
        let input = fleet();
        let dx = EnergyDx::default();
        let traces = input.traces();
        for (start, end) in shard_bounds(traces.len(), 3) {
            // Shift down: a partial mapped at a global offset
            // re-anchored at zero equals the local mapping — the
            // inverse of `rebase`.
            let global = dx.map_shard(&traces[start..end], start);
            let local = dx.map_shard(&traces[start..end], 0);
            assert_eq!(global.clone().rebase_to(0), local);
            // Shift up agrees with `rebase`, and the round trip is
            // the identity.
            assert_eq!(local.clone().rebase_to(start), global);
            assert_eq!(global.clone().rebase_to(start), global);
        }
        assert_eq!(ShardPartial::empty().rebase_to(7), ShardPartial::empty());
    }

    #[test]
    fn merge_is_order_independent() {
        let input = fleet();
        let dx = EnergyDx::default();
        let traces = input.traces();
        let parts: Vec<ShardPartial> = shard_bounds(traces.len(), 3)
            .into_iter()
            .map(|(s, e)| dx.map_shard(&traces[s..e], s))
            .collect();
        let [a, b, c] = <[ShardPartial; 3]>::try_from(parts).unwrap();
        let forward = a.clone().merge(b.clone()).merge(c.clone());
        let backward = c.merge(b).merge(a);
        assert_eq!(forward, backward);
        assert_eq!(dx.finish(forward).unwrap(), dx.diagnose_reference(&input));
    }

    #[test]
    fn empty_partial_is_merge_identity() {
        let input = fleet();
        let dx = EnergyDx::default();
        let mapped = dx.map_shard(input.traces(), 0);
        let merged = ShardPartial::empty()
            .merge(mapped.clone())
            .merge(ShardPartial::empty());
        assert_eq!(merged, mapped);
    }

    #[test]
    fn partial_vocabulary_is_canonical() {
        let input = fleet();
        let mapped = EnergyDx::default().map_shard(input.traces(), 0);
        assert_eq!(mapped.vocabulary(), ["A", "B"]);
    }

    #[test]
    fn merging_disjoint_vocabularies_remaps_ids() {
        // Two shards whose event vocabularies do not overlap at all:
        // after the merge both segments must be expressed in the
        // sorted union, from either merge direction.
        let dx = EnergyDx::default();
        let left: Vec<Vec<PoweredInstance>> = vec![(0..10)
            .map(|i| instance("zz", i * 500, 100.0 + i as f64))
            .collect()];
        let right: Vec<Vec<PoweredInstance>> = vec![(0..10)
            .map(|i| instance("aa", i * 500, 200.0 + i as f64))
            .collect()];
        let a = dx.map_shard(&left, 0);
        let b = dx.map_shard(&right, 1);
        let forward = a.clone().merge(b.clone());
        let backward = b.merge(a);
        assert_eq!(forward, backward);
        assert_eq!(forward.vocabulary(), ["aa", "zz"]);
        let input =
            DiagnosisInput::new(left.into_iter().chain(right).collect());
        assert_eq!(dx.finish(forward).unwrap(), dx.diagnose_reference(&input));
    }

    #[test]
    fn finish_rejects_a_gap() {
        let input = fleet();
        let dx = EnergyDx::default();
        let traces = input.traces();
        // Map only the first and last thirds; the middle is missing.
        let partial = dx
            .map_shard(&traces[..2], 0)
            .merge(dx.map_shard(&traces[5..], 5));
        let err = dx.finish(partial).unwrap_err();
        assert!(matches!(err, ShardError::IncompleteFleet { .. }));
        assert!(err.to_string().contains("contiguous"));
    }

    #[test]
    fn finish_of_empty_partial_is_the_empty_report() {
        let dx = EnergyDx::default();
        let report = dx.finish(ShardPartial::empty()).unwrap();
        assert_eq!(report, dx.diagnose_reference(&DiagnosisInput::default()));
    }

    #[test]
    fn skipped_indices_are_global() {
        let input = fleet();
        let dx = EnergyDx::default();
        let report = dx.diagnose_sharded(&input, 4);
        assert_eq!(report.stats.skipped.len(), 1);
        assert_eq!(report.stats.skipped[0].index, 5);
    }

    #[test]
    fn analyze_exposes_fleet_shape_without_rendering() {
        let input = fleet();
        let dx = EnergyDx::default();
        let analyzed = dx.analyze(dx.map_shard(input.traces(), 0)).unwrap();
        assert_eq!(analyzed.trace_count(), 7);
        assert!(analyzed.detection_count() >= 1);
        let report = dx.render(analyzed);
        assert_eq!(report, dx.diagnose_reference(&input));
    }

    #[test]
    fn approx_bytes_tracks_the_partial_shape() {
        let input = fleet();
        let dx = EnergyDx::default();
        let whole = dx.map_shard(input.traces(), 0);
        let half = dx.map_shard(&input.traces()[..3], 0);
        assert_eq!(ShardPartial::empty().approx_bytes(), 0);
        assert!(whole.approx_bytes() > half.approx_bytes());
        // Deterministic: the same partial always accounts identically.
        assert_eq!(
            whole.approx_bytes(),
            dx.map_shard(input.traces(), 0).approx_bytes()
        );
        // And merging accounts for the union, not the sum of headers:
        // a merged partial never reports more than its pieces did.
        let a = dx.map_shard(&input.traces()[..3], 0);
        let b = dx.map_shard(&input.traces()[3..], 3);
        let merged_bytes = a.approx_bytes() + b.approx_bytes();
        assert!(a.merge(b).approx_bytes() <= merged_bytes);
    }

    #[test]
    fn shard_bounds_partition_the_range() {
        for len in 0..40 {
            for shards in 0..10 {
                let bounds = shard_bounds(len, shards);
                let covered: usize = bounds.iter().map(|(s, e)| e - s).sum();
                if len == 0 || shards == 0 {
                    assert!(bounds.is_empty());
                } else {
                    assert_eq!(covered, len);
                    assert_eq!(bounds[0].0, 0);
                    assert_eq!(bounds.last().unwrap().1, len);
                    for w in bounds.windows(2) {
                        assert_eq!(w[0].1, w[1].0);
                        assert!(!bounds.iter().any(|(s, e)| s >= e));
                    }
                }
            }
        }
    }
}
