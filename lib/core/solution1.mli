(** Solution 1 (Section 3, Theorem 1): the linear-space two-level
    structure.

    First level: a binary tree over the x-order of segment endpoints.
    Each node [v] carries a vertical base line [bl(v)] through the
    median endpoint; segments crossing the line stay at [v], the rest
    recurse left/right, so the height is O(log n). Per node:

    - [C(v)]: an external interval tree over the y-extents of the
      segments lying *on* the base line;
    - [L(v)] / [R(v)]: external PSTs over the left and right parts of
      the crossing segments — line-based sets in the sense of
      Section 2.

    A query at abscissa [x0] walks one root-to-leaf path, querying
    [L(v)] or [R(v)] at depth [|x0 - bl(v)|] on the way; if [x0] hits a
    base line exactly it queries [C(v)] and both PSTs at depth 0 and
    stops. Every segment is stored at exactly one node, so answers are
    reported once (base-line hits are de-duplicated by id).

    This is Solution 2's tree at fan-out 2: one boundary per node, so
    no segment crosses two and [G] stays empty. Updates follow the
    paper's BB[alpha] discipline through {!Segdb_util.Balance.heavy}.
    Storage O(n), query
    O(log n (log_B n + IL*(B)) + t), amortized logarithmic insertion —
    with our blocked PST standing in for the P-range tree (DESIGN.md). *)

include Vs_index.S
