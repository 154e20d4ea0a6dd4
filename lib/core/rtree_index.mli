(** The R-tree baseline behind the common index interface; its
    [check_invariants] is {!Segdb_rtree.Rtree.check_invariants}. *)

include Vs_index.S
