(* Aggregated test runner for the whole reproduction. *)

let () =
  Alcotest.run "mely"
    [
      ("mstd", Test_mstd.suite);
      ("hw", Test_hw.suite);
      ("sim", Test_sim.suite);
      ("engine", Test_engine.suite);
      ("core", Test_core.suite);
      ("sched", Test_sched.suite);
      ("netsim", Test_netsim.suite);
      ("apps", Test_apps.suite);
      ("crypto", Test_crypto.suite);
      ("httpkit", Test_httpkit.suite);
      ("rt", Test_rt.suite);
      ("spmc", Test_spmc.suite);
      ("rt-stress", Test_rt_stress.suite);
      ("rt-trace", Test_rt_trace.suite);
      ("rt-telemetry", Test_rt_telemetry.suite);
      ("rt-supervision", Test_rt_supervision.suite);
      ("rtnet", Test_rtnet.suite);
      ("rtnet-chaos", Test_rtnet_chaos.suite);
      ("properties", Test_properties.suite);
      ("harness", Test_harness.suite);
    ]
