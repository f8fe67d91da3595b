let () =
  Alcotest.run "thinslice"
    [ ("bits", Test_bits.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("typecheck", Test_typecheck.suite);
      ("ir", Test_ir.suite);
      ("ssa", Test_ssa.suite);
      ("interp", Test_interp.suite);
      ("pta", Test_pta.suite);
      ("modref", Test_modref.suite);
      ("sdg", Test_sdg.suite);
      ("slicer", Test_slicer.suite);
      ("expansion", Test_expansion.suite);
      ("explain", Test_explain.suite);
      ("tabulation", Test_tabulation.suite);
      ("forward", Test_forward.suite);
      ("dynamic", Test_dynamic.suite);
      ("tasks", Test_tasks.suite);
      ("obs", Test_obs.suite);
      ("solver-oracle", Test_obs.solver_oracle_suite);
      ("properties", Test_props.suite);
      ("fuzz", Test_fuzz.suite);
      ("incremental", Test_incremental.suite);
      ("incremental-solver", Test_incremental_solver.suite);
      ("cli", Test_cli.suite);
      ("serve", Test_serve.suite);
      ("scale", Test_scale.suite) ]
