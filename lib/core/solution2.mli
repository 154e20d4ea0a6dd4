(** Solution 2 (Section 4, Theorem 2): the improved two-level structure.

    First level: an external interval tree with branching [b = B/4]
    balanced over endpoint quantiles, so the height drops from
    O(log n) to O(log_B n). A node's [b - 1] boundaries cut its x-range
    into [b] slabs; every segment stored at the node is split (Figure 6)
    into at most two *short* fragments — line-based on the first/last
    boundary it crosses, kept in per-boundary external PSTs [L_i] /
    [R_i] — and one *long* fragment spanning whole slabs, kept in the
    slab segment tree [G] with fractional cascading (Section 4.3).
    Segments lying on a boundary go to per-boundary interval trees
    [C_i]. Segments inside one slab recurse.

    A query visits one node per level, querying two PSTs and walking
    one root-to-leaf path of [G] — cascaded, so only the topmost [G]
    level pays a list search. A query on boundary [i] asks [C_i], [L_i]
    at depth 0 and the [G] fragments that start left of it, and stops
    there, as Solution 1 does on its base line; [R_i] would only repeat
    them. Storage O(n log2 B) from the [G] multiplicity; query
    O(log_B n (log_B n + log2 B + IL*(B)) + t); insertions are
    semi-dynamic per the paper, via PST push-down, [C_i]/[G] doubling
    rebuilds and first-level rebuilds of a node with a heavy kid
    ({!Segdb_util.Balance.heavy}; DESIGN.md lists the substitutions).
    Solution 1 is the same tree at fan-out 2. *)

include Vs_index.S

val cascade_counters : t -> int * int
(** (guided levels, fallback searches) accumulated across all [G]
    structures — the fractional-cascading effectiveness measure of
    experiment E5. *)
