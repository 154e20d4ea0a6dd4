open Segdb_io
open Segdb_geom

(** External priority search trees for line-based segments (Section 2).

    The structure stores {!Lseg.t} values in blocks of at most
    [node_capacity] segments. Every node keeps the segments of its
    subtree that reach deepest (largest [far_u]) — the heap dimension —
    while the children partition the remaining segments by the
    left-to-right order {!Lseg.compare_key} — the search dimension. This
    is exactly the paper's construction ("select B segments with the
    topmost endpoints, partition the rest in two"), generalized to an
    arbitrary branching factor:

    - [branching = 2] is the binary external PST of Section 2
      (query [O(log n + t)] I/Os, Lemma 2);
    - [branching = Θ(B)] packs the child routers into the parent block
      and stands in for the P-range tree refinement of Lemma 3
      (query [O(log_B n + t)] I/Os measured; the paper's extra
      [IL*(B)] term buys the strict worst case in linear space).

    Queries are segments parallel to the base line ({!Lseg.query}).
    Matching is decided per segment by exact evaluation, so answers are
    correct unconditionally; the NCT order lemma (crossing positions of
    non-crossing segments are ordered like their {!Lseg.compare_key})
    powers the *pruning*: any scanned segment crossing left of the query
    bounds all smaller keys away, and symmetrically. [Find] — the
    deepest-leftmost / deepest-rightmost search of Lemma 1 — is exposed
    separately as {!find_leftmost} / {!find_rightmost}.

    Insertions follow the paper's semi-dynamic regime: heap push-down
    along the search path, and the bulk builder rebuilds a full leaf and
    any node whose child grows too heavy ({!Segdb_util.Balance.heavy},
    the BB[alpha] substitute), giving amortized logarithmic cost. *)

type t

val build :
  ?node_capacity:int ->
  ?branching:int ->
  pool:Block_store.Pool.t ->
  stats:Io_stats.t ->
  Lseg.t array ->
  t
(** Static bulk construction. [node_capacity] (the paper's [B]) defaults
    to 64, [branching] to 2. The input array is not modified; duplicate
    ids are not rejected but make answers ambiguous. *)

val binary :
  ?node_capacity:int ->
  pool:Block_store.Pool.t ->
  stats:Io_stats.t ->
  Lseg.t array ->
  t
(** [build ~branching:2]. *)

val blocked :
  ?node_capacity:int ->
  pool:Block_store.Pool.t ->
  stats:Io_stats.t ->
  Lseg.t array ->
  t
(** [build] with [branching = max 4 (node_capacity / 4)] — one block per
    node still holds all child routers. *)

val insert : t -> Lseg.t -> unit

val delete : t -> Lseg.t -> bool
(** Removes the segment ({!Lseg.compare_key}-identical), refilling the
    heap from child blocks along the search path; returns whether it was
    present. Subtree key ranges become conservative (still-enclosing)
    bounds, so pruning stays correct; depths are maintained exactly. *)

val size : t -> int
val height : t -> int
val block_count : t -> int

val query : t -> Lseg.query -> f:(Lseg.t -> unit) -> unit
(** Reports every stored segment intersected by the query, exactly once,
    in no particular order. *)

val query_list : t -> Lseg.query -> Lseg.t list

val count : t -> Lseg.query -> int

val find_leftmost : t -> Lseg.query -> Lseg.t option
(** The intersected segment least in {!Lseg.compare_key} order — the
    paper's deepest-leftmost segment (Lemma 1.1). *)

val find_rightmost : t -> Lseg.query -> Lseg.t option

(** {1 The Appendix A frontier form of Find}

    The paper implements [Find] with a queue of candidate nodes and
    argues it keeps at most two nodes per level (the heart of Lemma
    1.1). [find_profile] runs that breadth-first form and reports the
    realized frontier width, so the claim is measurable; results always
    agree with {!find_leftmost}/{!find_rightmost}. *)

type find_profile = {
  result : Lseg.t option;
  visited : int;  (** blocks read *)
  max_width : int;
      (** most nodes *processed* (read) on one level — the paper's
          "Q refers at most two nodes on each level"; candidates pruned
          by witnesses before being read do not count *)
  levels : int;
}

val find_profile : t -> Lseg.query -> leftmost:bool -> find_profile

val query_two_phase : t -> Lseg.query -> f:(Lseg.t -> unit) -> unit
(** The paper's Report as written (Appendix A, Algorithm 2): [Find]
    both boundary segments, then report the 3-sided set between their
    keys — which the NCT order lemma proves equal to the answer. Same
    results as {!query}; kept as the faithful-to-the-text variant. *)

val iter : t -> (Lseg.t -> unit) -> unit

val check_invariants : t -> bool
(** Heap order on [far_u], key order inside blocks and across children,
    router accuracy (subtree max depth, key range, size), block
    capacity. Test use. *)
