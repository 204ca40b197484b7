let () =
  Alcotest.run "probdb"
    (Test_core.suites @ Test_boolean.suites @ Test_logic.suites
     @ Test_lineage.suites @ Test_kc.suites @ Test_golden.suites @ Test_dpll.suites @ Test_cnf.suites
     @ Test_lifted.suites @ Test_plans.suites @ Test_exec.suites
     @ Test_par.suites @ Test_mln.suites
     @ Test_symmetric.suites @ Test_approx.suites @ Test_engine.suites
     @ Test_openworld.suites @ Test_provenance.suites @ Test_robustness.suites
     @ Test_obs.suites @ Test_trace.suites @ Test_metrics.suites
     @ Test_prepare.suites @ Test_serve.suites @ Test_storage.suites
     @ Test_chaos.suites)
