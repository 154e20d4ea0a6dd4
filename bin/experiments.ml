(* Experiment runner: regenerates the EXPERIMENTS.md tables.

   Usage:  experiments [--quick] [--seed N] [--list] [ID ...]         *)

open Cmdliner
module Registry = Segdb_experiments.Registry
module Harness = Segdb_experiments.Harness

let list_experiments () =
  List.iter
    (fun (e : Registry.experiment) ->
      Printf.printf "%-4s %s\n     validates: %s\n" e.id e.title e.validates)
    Registry.all

let run quick seed list ids =
  if list then begin
    list_experiments ();
    0
  end
  else begin
    let params = { Harness.quick = quick; seed } in
    match Registry.run_ids ~params ids with
    | () -> 0
    | exception Invalid_argument msg ->
        prerr_endline msg;
        2
  end

let quick_t =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps (smoke run, ~seconds).")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload generator seed.")

let list_t = Arg.(value & flag & info [ "list" ] ~doc:"List experiments and exit.")

let ids_t =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")

let cmd =
  let doc = "regenerate the segdb experiment tables (EXPERIMENTS.md)" in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(const run $ quick_t $ seed_t $ list_t $ ids_t)

let () = exit (Cmd.eval' cmd)
