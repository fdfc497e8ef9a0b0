let () =
  Alcotest.run "liquid_simd"
    [
      ("machine", Suite_machine.tests);
      ("isa", Suite_isa.tests);
      ("visa", Suite_visa.tests);
      ("prog", Suite_prog.tests);
      ("parse", Suite_parse.tests);
      ("sem", Suite_sem.tests);
      ("scalarize", Suite_scalarize.tests);
      ("cpu", Suite_cpu.tests);
      ("pipeline-units", Suite_pipeline_units.tests);
      ("interleave", Suite_interleave.tests);
      ("microcode", Suite_microcode.tests);
      ("kernels", Suite_kernels.tests);
      ("workloads", Suite_workloads.tests);
      ("props", Suite_props.tests);
      ("harness", Suite_harness.tests);
      ("translator", Suite_translator.tests);
      ("fidelity", Suite_fidelity.tests);
      ("golden", Suite_golden.tests);
      ("vla", Suite_vla.tests);
      ("rvv", Suite_rvv.tests);
      ("blocks", Suite_blocks.tests);
      ("superblocks", Suite_superblocks.tests);
      ("illegal", Suite_illegal.tests);
      ("obs", Suite_obs.tests);
      ("faults", Suite_faults.tests);
      ("fuzz", Suite_fuzz.tests);
      ("smoke", Suite_smoke.tests);
    ]
