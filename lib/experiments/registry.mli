(** The experiment registry (per-experiment index of DESIGN.md /
    EXPERIMENTS.md). *)

type experiment = {
  id : string;
  title : string;
  validates : string;
  run : Harness.params -> Harness.output list;
}

val all : experiment list
val find : string -> experiment option

val run_ids : ?params:Harness.params -> string list -> unit
(** Runs the listed experiments (all when the list is empty) and prints
    their tables to stdout. Unknown ids raise [Invalid_argument]. *)
