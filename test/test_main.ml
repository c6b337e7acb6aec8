let () =
  Alcotest.run "hpsmr"
    [ ("sim", Test_sim.suite);
      ("net", Test_net.suite);
      ("pool", Test_pool.suite);
      ("paxos", Test_paxos.suite);
      ("ringpaxos", Test_ringpaxos.suite);
      ("abcast", Test_abcast.suite);
      ("btree", Test_btree.suite);
      ("smr", Test_smr.suite);
      ("multiring", Test_multiring.suite);
      ("psmr", Test_psmr.suite);
      ("kv", Test_kv.suite);
      ("cloud", Test_cloud.suite);
      ("extra", Test_extra.suite);
      ("storage", Test_storage.suite);
      ("protocol", Test_protocol.suite);
      ("trace", Test_trace.suite);
      ("engine-equiv", Test_engine_equiv.suite);
      ("properties", Test_properties.suite);
      ("fault", Test_fault.suite) ]
