let () =
  Alcotest.run "pvtol"
    [
      Test_util.suite;
      Test_telemetry.suite;
      Test_observability.suite;
      Test_stage.suite;
      Test_stdcell.suite;
      Test_netlist.suite;
      Test_vex.suite;
      Test_vexsim.suite;
      Test_place.suite;
      Test_timing.suite;
      Test_variation.suite;
      Test_ssta.suite;
      Test_engines.suite;
      Test_power.suite;
      Test_core.suite;
      Test_extensions.suite;
      Test_postsilicon.suite;
      Test_compensation.suite;
      Test_sampling.suite;
      Test_properties.suite;
      Test_misc.suite;
    ]
