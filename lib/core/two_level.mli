(** The two-level index both solutions share (Sections 3 and 4).

    First level: a weight-balanced tree over the x-order of segment
    endpoints. A node's boundaries are endpoint quantiles and cut its
    x-range into [b] slabs (the fan-out). A segment stays at the first
    node where it touches a boundary; the rest recurse into their slab,
    so every kid's segments lie strictly inside its slab. Per boundary
    [i] a node keeps [C_i], an interval tree over the y-extents of the
    segments lying on it, and [L_i] / [R_i], blocked PSTs over the
    line-based short fragments to its left and right (Figure 6).
    Segments crossing two or more boundaries also leave a long fragment
    in the slab segment tree [G] (Section 4.2), cascaded when the
    config says so.

    A query visits one node per level: [G] on the way, then the PST on
    each side of its slab at the distance to that boundary. A query
    that lands on a boundary asks [C_i] and both PSTs at depth 0 and
    stops, because no kid holds a segment touching the boundary.

    At fan-out 2 a node has one boundary, no segment crosses two
    boundaries and [G] is empty: the node is Solution 1's [bl(v)],
    [C(v)], [L(v)] and [R(v)] with two kids. Solution 2 widens it to
    [b = B/4]. Updates are local, plus a rebuild of a node whose kid
    grows too heavy ({!Segdb_util.Balance.heavy}) and a global rebuild
    once the deletions since the last one outnumber the live segments
    plus [B]. *)

(** The constants that make one backend out of the tree. *)
module type SHAPE = sig
  val name : string
  (** The backend's {!Vs_index.S.name}. *)

  val tag : string
  (** The block store's name; the query span is [tag ^ ".descent"]. *)

  val fanout : block:int -> int
  (** Slabs per node for block size [B]: at least 2. *)
end

module Make (_ : SHAPE) : sig
  include Vs_index.S

  val cascade_counters : t -> int * int
  (** (guided levels, fallback searches) accumulated across all [G]
      structures. *)
end
