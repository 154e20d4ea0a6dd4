let () =
  Alcotest.run "segdb"
    [ T_util.suite; T_io.suite; T_btree.suite; T_geom.suite; T_pst.suite; T_itree.suite; T_segtree.suite; T_rtree.suite; T_workload.suite; T_core.suite; T_parallel.suite; T_seg_file.suite; T_sweep.suite; T_obs.suite; T_exec.suite; T_net.suite; T_repl.suite ]
