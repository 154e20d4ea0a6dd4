open Segdb_util
open Segdb_geom

(** Workload generators.

    Every family produces a *certified* NCT set — the construction
    itself guarantees segments never properly cross (touching is
    allowed), so indexes can be exercised at scales where an O(n²)
    check would be unaffordable. Families with integer coordinates are
    additionally verified with exact predicates in the test suite.

    The families mirror the application domains the paper's
    introduction motivates: GIS map layers ([roads], [grid_city]),
    temporal databases ([temporal]), and adversarial/synthetic shapes
    ([fans], [line_based]). Ids are assigned sequentially from 0. *)

val roads : Rng.t -> n:int -> span:float -> Segment.t array
(** GIS-like map layer: parallel polyline "tracks" (bounded-amplitude
    random walks in disjoint horizontal bands), cut into chained
    segments with occasional gaps. Float coordinates; NCT by band
    separation and per-track chaining. *)

val grid_city : Rng.t -> n:int -> span:int -> max_len:int -> Segment.t array
(** Manhattan layout: axis-parallel street segments on an integer grid,
    split exactly at every crossing so the result only touches. The
    closest synthetic analogue of planarized cadastral data. Returns at
    least [n] segments when possible, truncated to [n]. *)

val temporal : Rng.t -> n:int -> keys:int -> horizon:int -> Segment.t array
(** Valid-time version histories: for each key (a row [y = key]) a
    sequence of touching or gapped version intervals over
    [\[0, horizon\]]. A vertical line query at time [tau] is a snapshot
    ("which versions were live at tau"). Integer coordinates. *)

val fans : Rng.t -> n:int -> centers:int -> span:int -> Segment.t array
(** Star/fan sets: segments radiating upward from a few base points in
    disjoint strips — the line-based worst case concentrating many
    segments on few base positions. Integer coordinates. *)

val uniform : Rng.t -> n:int -> span:float -> Segment.t array
(** Default mixed workload: [roads] with many narrow tracks, giving
    short, direction-varied segments spread uniformly. *)

val long_spans : Rng.t -> n:int -> span:float -> Segment.t array
(** Wide nearly-parallel segments (bases and slopes co-sorted, hence
    NCT) whose x-extents cover 30-80% of the span: the regime where
    Solution 2 produces many long fragments and fractional cascading
    matters. *)

val line_based : Rng.t -> n:int -> vspan:float -> umax:float -> Lseg.t array
(** Canonical-frame line-based segments (for the Section 2 structures):
    base positions and slopes co-sorted, hence mutually non-crossing at
    any depth; depths are independent. *)

val line_based_fan : Rng.t -> n:int -> centers:int -> vspan:float -> umax:float -> Lseg.t array
(** Line-based fans: few distinct base positions, slope-ordered. *)

(** {1 Queries} *)

val segment_queries :
  Rng.t -> n:int -> span:float -> selectivity:float -> Vquery.t array
(** Vertical segment queries with height [selectivity * span], centered
    uniformly inside the data extent. *)

val line_queries : Rng.t -> n:int -> span:float -> Vquery.t array
(** Stabbing queries (Figure 1's left side). *)

(** {1 Checking} *)

val verify_nct : Segment.t array -> bool
(** Exact pairwise check via integer predicates — only for families with
    integer coordinates, and test-sized inputs (O(n²)). *)

val verify_nct_fast : Segment.t array -> bool
(** Sweepline check ({!Segdb_geom.Sweep}): O(n log n), usable at index
    scale; exact on integral coordinates. *)
