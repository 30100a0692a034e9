type entry = {
  e_id : string;
  e_title : string;
  e_run : Sim.Ctx.t -> Table.t;
}

let entry e_id e_title e_run = { e_id; e_title; e_run }

let all =
  [
    entry "E1" "Video staging latency: tiles vs whole frames"
      E01_tile_latency.run;
    entry "E2" "Stream bandwidths; audio jitter sensitivity"
      E02_bandwidth_jitter.run;
    entry "E3" "Domain scheduling under overload" E03_scheduling.run;
    entry "E3b" "QoS manager: weights over time" E03_scheduling.run_qos;
    entry "E4" "Scheduler activations vs transparent resumption"
      E04_activations.run;
    entry "E5" "Synchronous vs asynchronous event signalling" E05_events.run;
    entry "E6" "Single address space: switches and relocation"
      E06_address_space.run;
    entry "E7" "Name resolution and the invocation ladder" E07_naming.run;
    entry "E8" "Disk, stripe and network throughput" E08_throughput.run;
    entry "E9" "Cleaning cost as the file system grows" E09_cleaning.run;
    entry "E10" "Write-behind against the 30-second lifetime wall"
      E10_delayed_writes.run;
    entry "E11" "LRU caching: files win, streams lose" E11_caching.run;
    entry "E12" "Acknowledged data across injected failures" E12_failures.run;
    entry "E13" "Graceful degradation under injected faults" E13_faults.run;
    entry "E14" "City-scale fabric: contract admission from 10 to 10k streams"
      E14_cityscale.run;
    entry "E15"
      "VOD flash crowd: popularity-aware replication vs static placement"
      E15_vodscale.run;
    entry "A1" "Ablation: sharing out the slack" A1_slack.run;
    entry "PAR" "Sharded fabric: conservative parallel simulation" Fabric.run;
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.e_id = id) all
