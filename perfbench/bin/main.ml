(* perfbench: the repository's benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--tmpdir DIR] [--trace-out FILE] [--git-rev REV]

   Prints one line per metric, a metadata line, and the result object
   as the last line; exits 1 when an output check failed. *)

let pool_size = 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tmpdir = ref "perfbench-tmp" and trace_out = ref "" and git_rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "query-storm | query-distinct | churn-soak");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "sizes the untraced drive's work");
      ("--trace", Arg.Set_int trace, "1: per-layer metrics from a traced run");
      ("--tmpdir", Arg.Set_string tmpdir, "private temporary directory (removed at exit)");
      ("--trace-out", Arg.Set_string trace_out, "write the spans of a traced run here");
      ("--git-rev", Arg.Set_string git_rev, "source revision, recorded");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  (* The worker pool is pinned to one domain (its size is recorded in
     every record).  With a second domain every minor collection is a
     stop-the-world barrier across both, and on a shared 2-vCPU host a
     run then pays the host's CPU steal on both: same-seed
     query-distinct runs gave 172-301 answers/s with two domains (6-15 s
     of steal per run) and 276-396 with one (about 2 s).  The pool is
     created on first use from RVAAS_JOBS, so pin it first. *)
  Unix.putenv "RVAAS_JOBS" (string_of_int pool_size);
  let cfg =
    {
      Perfbench.World.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      tmpdir = !tmpdir;
      tiny = false;
      corrupt = false;
    }
  in
  let r =
    Fun.protect
      ~finally:(fun () -> Perfbench.Bench.cleanup cfg)
      (fun () -> Perfbench.Bench.run cfg !workload)
  in
  if cfg.trace && !trace_out <> "" then Perfbench.Trace.write !trace_out;
  Perfbench.Bench.print ~extra_meta:[ ("git_rev", Perfbench.Util.Str !git_rev) ] cfg r;
  exit (if r.correct then 0 else 1)
