(* Test entry point: one Alcotest run over every suite. *)

let () =
  Alcotest.run "komodo"
    [
      ("word", Test_word.suite);
      ("machine", Test_machine.suite);
      ("memory-model", Test_memory_model.suite);
      ("ptable", Test_ptable.suite);
      ("insn", Test_insn.suite);
      ("exec", Test_exec.suite);
      ("crypto", Test_crypto.suite);
      ("tz", Test_tz.suite);
      ("measure", Test_measure.suite);
      ("pagedb", Test_pagedb.suite);
      ("smc", Test_smc.suite);
      ("svc", Test_svc.suite);
      ("enclave", Test_enclave.suite);
      ("dispatcher", Test_dispatcher.suite);
      ("integration", Test_integration.suite);
      ("verifier", Test_verifier.suite);
      ("ablation", Test_ablation.suite);
      ("smp", Test_smp.suite);
      ("kasm", Test_kasm.suite);
      ("os", Test_os.suite);
      ("uexec", Test_uexec.suite);
      ("sgx", Test_sgx.suite);
      ("security", Test_sec.suite);
      ("telemetry", Test_telemetry.suite);
      ("hist", Test_hist.suite);
      ("spec", Test_spec.suite);
      ("errmatrix", Test_errmatrix.suite);
      ("fault", Test_fault.suite);
      ("blockstore", Test_blockstore.suite);
      ("vault", Test_vault.suite);
      ("seedsplit", Test_seedsplit.suite);
      ("campaign", Test_campaign.suite);
      ("serve", Test_serve.suite);
      ("explore", Test_explore.suite);
      ("tracefile", Test_tracefile.suite);
    ]
