open Segdb_util

type experiment = {
  id : string;
  title : string;
  validates : string;
  run : Harness.params -> Harness.output list;
}

let all =
  [
    {
      id = E01_pst_scaling.id;
      title = E01_pst_scaling.title;
      validates = E01_pst_scaling.validates;
      run = E01_pst_scaling.run;
    };
    {
      id = E02_pst_block_size.id;
      title = E02_pst_block_size.title;
      validates = E02_pst_block_size.validates;
      run = E02_pst_block_size.run;
    };
    {
      id = E03_output_sensitivity.id;
      title = E03_output_sensitivity.title;
      validates = E03_output_sensitivity.validates;
      run = E03_output_sensitivity.run;
    };
    {
      id = E04_vs_query_scaling.id;
      title = E04_vs_query_scaling.title;
      validates = E04_vs_query_scaling.validates;
      run = E04_vs_query_scaling.run;
    };
    {
      id = E05_cascading.id;
      title = E05_cascading.title;
      validates = E05_cascading.validates;
      run = E05_cascading.run;
    };
    { id = E06_space.id; title = E06_space.title; validates = E06_space.validates; run = E06_space.run };
    {
      id = E07_insertion.id;
      title = E07_insertion.title;
      validates = E07_insertion.validates;
      run = E07_insertion.run;
    };
    {
      id = E08_stabbing.id;
      title = E08_stabbing.title;
      validates = E08_stabbing.validates;
      run = E08_stabbing.run;
    };
    {
      id = E09_workloads.id;
      title = E09_workloads.title;
      validates = E09_workloads.validates;
      run = E09_workloads.run;
    };
    {
      id = E10_bridge_tradeoff.id;
      title = E10_bridge_tradeoff.title;
      validates = E10_bridge_tradeoff.validates;
      run = E10_bridge_tradeoff.run;
    };
    {
      id = E12_duality.id;
      title = E12_duality.title;
      validates = E12_duality.validates;
      run = E12_duality.run;
    };
    {
      id = E13_find_frontier.id;
      title = E13_find_frontier.title;
      validates = E13_find_frontier.validates;
      run = E13_find_frontier.run;
    };
    {
      id = E14_pool_size.id;
      title = E14_pool_size.title;
      validates = E14_pool_size.validates;
      run = E14_pool_size.run;
    };
    {
      id = E16_construction.id;
      title = E16_construction.title;
      validates = E16_construction.validates;
      run = E16_construction.run;
    };
  ]

let find id = List.find_opt (fun e -> String.lowercase_ascii id = e.id) all

let run_ids ?(params = Harness.default) ids =
  let selected =
    match ids with
    | [] -> all
    | ids ->
        List.map
          (fun id ->
            match find id with
            | Some e -> e
            | None -> invalid_arg (Printf.sprintf "unknown experiment %S" id))
          ids
  in
  List.iter
    (fun e ->
      Printf.printf "\n### %s — validates: %s\n\n" e.id e.validates;
      List.iter
        (function
          | Harness.Table t -> Table.print t
          | Harness.Chart c -> print_string c)
        (e.run params);
      print_newline ())
    selected
