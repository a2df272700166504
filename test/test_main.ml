let () =
  Alcotest.run "ordered_xml"
    [
      Test_xml.tests;
      Test_btree.tests;
      Test_dtd.tests;
      Test_core_units.tests;
      Test_sql.tests;
      Test_reldb_units.tests;
      Test_obs.tests;
      Test_dewey.tests;
      Test_doc_index.tests;
      Test_xpath.tests;
      Test_shred.tests;
      Test_translate.tests;
      Test_local_order.tests;
      Test_translate_sql.tests;
      Test_analysis.tests;
      Test_schema_check.tests;
      Test_prepared.tests;
      Test_update.tests;
      Test_api.tests;
      Test_flwor.tests;
      Test_wal.tests;
      Test_wal.crash_tests;
      Test_fuzz.tests;
      Test_differential.tests;
    ]
