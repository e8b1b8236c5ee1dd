(* rvaas-cli: run RVaaS deployments, queries and attack scenarios from
   the command line.

     dune exec bin/rvaas_cli.exe -- query --topo fat-tree --size 4 \
       --kind isolation --host 0
     dune exec bin/rvaas_cli.exe -- attack --attack join --kind isolation
     dune exec bin/rvaas_cli.exe -- topo --topo waxman --size 30
     dune exec bin/rvaas_cli.exe -- monitor --polling random --loss 0.8 *)

open Cmdliner

(* ---- shared options ---- *)

let topo_conv =
  Arg.enum
    [
      ("linear", `Linear);
      ("ring", `Ring);
      ("star", `Star);
      ("grid", `Grid);
      ("fat-tree", `Fat_tree);
      ("leaf-spine", `Leaf_spine);
      ("waxman", `Waxman);
      ("isp", `Isp);
      ("scale-free", `Scale_free);
      ("multi-domain", `Multi_domain);
    ]

let topo_arg =
  Arg.(value & opt topo_conv `Linear & info [ "topo" ] ~docv:"KIND" ~doc:"Topology kind.")

let size_arg =
  Arg.(
    value & opt int 4
    & info [ "size" ] ~docv:"N"
        ~doc:"Topology size (switch count; k for fat-tree; side for grid).")

let clients_arg =
  Arg.(value & opt int 2 & info [ "clients" ] ~docv:"N" ~doc:"Number of clients.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let host_arg =
  Arg.(value & opt int 0 & info [ "host" ] ~docv:"H" ~doc:"Requesting host id.")

let polling_conv =
  Arg.enum [ ("none", `None); ("periodic", `Periodic); ("random", `Random) ]

let polling_arg =
  Arg.(
    value & opt polling_conv `Random
    & info [ "polling" ] ~docv:"MODE" ~doc:"Configuration polling mode.")

let poll_period_arg =
  Arg.(
    value & opt float 0.05
    & info [ "poll-period" ] ~docv:"SECONDS" ~doc:"Poll period or mean gap.")

let loss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P" ~doc:"Monitor-event loss probability on the RVaaS channel.")

let coalesce_arg =
  Arg.(
    value & flag
    & info [ "coalesce" ]
        ~doc:
          "Fold identical in-flight queries under one computation (each \
           client still receives its own signed answer).")

let batch_window_arg =
  Arg.(
    value & opt float 0.0
    & info [ "batch-window" ] ~docv:"SECONDS"
        ~doc:
          "Settle tick: queries arriving within the window are flushed \
           together and batched per injection point (0 = flush \
           immediately, no batching).")

let subsume_arg =
  Arg.(
    value & flag
    & info [ "subsume" ]
        ~doc:
          "Attach scope-contained reachability queries to a broader queued \
           or in-flight computation as slices (implies $(b,--coalesce)); \
           each still receives its own signed answer.")

let limits_conv : Rvaas.Frontend.limits Arg.conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ rate; burst ] -> (
      match (float_of_string_opt rate, float_of_string_opt burst) with
      | Some rate, Some burst when rate > 0.0 && burst >= 1.0 ->
        Ok { Rvaas.Frontend.rate; burst }
      | _ -> Error (`Msg "expected RATE:BURST with RATE > 0 and BURST >= 1"))
    | _ -> Error (`Msg "expected RATE:BURST")
  in
  let print fmt { Rvaas.Frontend.rate; burst } =
    Format.fprintf fmt "%g:%g" rate burst
  in
  Arg.conv (parse, print)

let limits_arg =
  Arg.(
    value & opt (some limits_conv) None
    & info [ "limits" ] ~docv:"RATE:BURST"
        ~doc:
          "Per-client token-bucket admission: refill RATE tokens/second up \
           to BURST; over-budget clients receive a signed throttle answer.")

let frontend_term =
  let make coalesce subsume batch_window limits =
    if coalesce || subsume || batch_window > 0.0 || limits <> None then
      { Rvaas.Frontend.limits; coalesce = coalesce || subsume; batch_window; subsume }
    else Rvaas.Frontend.default_config
  in
  Cmdliner.Term.(
    const make $ coalesce_arg $ subsume_arg $ batch_window_arg $ limits_arg)

let make_topo kind size =
  let p = Workload.Topogen.default_params in
  match kind with
  | `Linear -> Workload.Topogen.linear p size
  | `Ring -> Workload.Topogen.ring p (max 3 size)
  | `Star -> Workload.Topogen.star p size
  | `Grid -> Workload.Topogen.grid p ~rows:size ~cols:size
  | `Fat_tree -> Workload.Topogen.fat_tree p ~k:(if size mod 2 = 0 then size else size + 1)
  | `Leaf_spine ->
    Workload.Topogen.leaf_spine p ~spines:(max 1 (size / 4)) ~leaves:(max 1 size)
  | `Waxman ->
    Workload.Topogen.waxman p (Support.Rng.create 7) ~n:size ~alpha:0.4 ~beta:0.4
  | `Isp -> Workload.Topogen.isp p ~core:(max 3 size) ~pops_per_core:2
  | `Scale_free ->
    let n = max 4 size in
    Workload.Topogen.scale_free p (Support.Rng.create 7) ~n ~m:2
  | `Multi_domain ->
    (* A DC fabric peered to a scale-free backbone, sized by --size leaves. *)
    let leaves = max 2 size in
    let m =
      Workload.Topogen.multi_domain p (Support.Rng.create 7) ~peering:2
        [
          Workload.Topogen.Leaf_spine { spines = max 1 (leaves / 4); leaves };
          Workload.Topogen.Scale_free { n = max 4 (leaves / 2); m = 2 };
        ]
    in
    m.Workload.Topogen.md_topo

let make_polling mode period =
  match mode with
  | `None -> Rvaas.Monitor.No_polling
  | `Periodic -> Rvaas.Monitor.Periodic period
  | `Random -> Rvaas.Monitor.Randomized period

let build kind size clients seed polling period loss frontend =
  let topo = make_topo kind size in
  Workload.Scenario.build
    {
      (Workload.Scenario.default_spec topo) with
      clients;
      seed;
      polling = make_polling polling period;
      rvaas_loss = loss;
      frontend;
    }

(* ---- topo subcommand ---- *)

let topo_cmd =
  let run kind size =
    let topo = make_topo kind size in
    Printf.printf "switches: %d\nhosts: %d\nlinks: %d\n"
      (Workload.Topogen.switch_count topo)
      (Workload.Topogen.host_count topo)
      (List.length (Netsim.Topology.links topo));
    List.iter
      (fun (l : Netsim.Topology.link) ->
        Format.printf "  %a -- %a (%.1f us)@." Netsim.Topology.pp_endpoint l.a
          Netsim.Topology.pp_endpoint l.b (1e6 *. l.delay))
      (Netsim.Topology.links topo);
    0
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Print a generated topology's wiring plan.")
    Term.(const run $ topo_arg $ size_arg)

(* ---- query subcommand ---- *)

let kind_conv =
  Arg.enum
    [
      ("isolation", `Isolation);
      ("reachable", `Reachable);
      ("sources", `Sources);
      ("geo", `Geo);
      ("fairness", `Fairness);
      ("transfer", `Transfer);
    ]

let kind_arg =
  Arg.(
    value & opt kind_conv `Isolation & info [ "kind" ] ~docv:"KIND" ~doc:"Query kind.")

let to_query = function
  | `Isolation -> Rvaas.Query.make Rvaas.Query.Isolation
  | `Reachable -> Rvaas.Query.make Rvaas.Query.Reachable_endpoints
  | `Sources -> Rvaas.Query.make Rvaas.Query.Sources_reaching_me
  | `Geo -> Rvaas.Query.make Rvaas.Query.Geo
  | `Fairness -> Rvaas.Query.make Rvaas.Query.Fairness
  | `Transfer -> Rvaas.Query.make Rvaas.Query.Transfer_summary

let run_query s ~host query =
  match Workload.Scenario.query_and_wait s ~host query ~timeout:2.0 with
  | None ->
    print_endline "no answer (timeout)";
    1
  | Some outcome ->
    Format.printf "%a@." Rvaas.Query.pp_answer outcome.Rvaas.Client_agent.answer;
    Printf.printf "round-trip: %.3f ms\n"
      (1000.0 *. (outcome.answered_at -. outcome.issued_at));
    let info = Option.get (Sdnctl.Addressing.host s.addressing ~host) in
    let policy = Workload.Scenario.policy_for s ~client:info.client in
    (match Rvaas.Detector.check_answer policy outcome.Rvaas.Client_agent.answer with
    | [] ->
      print_endline "policy check: clean";
      0
    | alarms ->
      List.iter (fun a -> Printf.printf "ALARM: %s\n" (Rvaas.Detector.describe a)) alarms;
      2)

let query_cmd =
  let run kind size clients seed polling period loss frontend host qkind =
    let s = build kind size clients seed polling period loss frontend in
    run_query s ~host (to_query qkind)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run one client query against a fresh deployment.")
    Term.(
      const run $ topo_arg $ size_arg $ clients_arg $ seed_arg $ polling_arg
      $ poll_period_arg $ loss_arg $ frontend_term $ host_arg $ kind_arg)

(* ---- attack subcommand ---- *)

let attack_conv =
  Arg.enum
    [
      ("join", `Join);
      ("exfiltrate", `Exfiltrate);
      ("blackhole", `Blackhole);
      ("meter", `Meter);
      ("transient-blackhole", `Transient);
    ]

let attack_arg =
  Arg.(
    value & opt attack_conv `Join & info [ "attack" ] ~docv:"ATTACK" ~doc:"Attack to launch.")

let attack_cmd =
  let run kind size clients seed polling period loss frontend host qkind attack =
    let s = build kind size clients seed polling period loss frontend in
    let now () = Netsim.Sim.now (Netsim.Net.sim s.net) in
    let attack_value =
      match attack with
      | `Join -> Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 }
      | `Exfiltrate -> Sdnctl.Attack.Exfiltrate { victim_host = 2; attacker_host = 1 }
      | `Blackhole -> Sdnctl.Attack.Blackhole { victim_host = 2 }
      | `Meter -> Sdnctl.Attack.Meter_squeeze { victim_host = 2; rate_kbps = 50 }
      | `Transient ->
        Sdnctl.Attack.Transient
          {
            attack = Sdnctl.Attack.Blackhole { victim_host = 2 };
            start = now () +. 0.05;
            duration = 0.05;
          }
    in
    Printf.printf "launching: %s\n" (Sdnctl.Attack.describe attack_value);
    Sdnctl.Attack.launch s.net s.addressing
      ~conn:(Sdnctl.Provider.conn s.provider)
      attack_value;
    Workload.Scenario.run s ~until:(now () +. 0.3);
    run_query s ~host (to_query qkind)
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Launch an attack through the compromised provider, then query.")
    Term.(
      const run $ topo_arg $ size_arg $ clients_arg $ seed_arg $ polling_arg
      $ poll_period_arg $ loss_arg $ frontend_term $ host_arg $ kind_arg $ attack_arg)

(* ---- monitor subcommand ---- *)

let monitor_cmd =
  let run kind size clients seed polling period loss frontend =
    let s = build kind size clients seed polling period loss frontend in
    Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 1.0) ;
    let snapshot = Rvaas.Monitor.snapshot s.monitor in
    Printf.printf "switches monitored: %d\n" (List.length (Rvaas.Snapshot.switches snapshot));
    Printf.printf "believed rules: %d\n" (Rvaas.Snapshot.total_flows snapshot);
    Printf.printf "events seen: %d (lost: %d)\n"
      (Rvaas.Monitor.events_seen s.monitor)
      (Netsim.Net.conn_lost (Rvaas.Monitor.conn s.monitor));
    Printf.printf "polls sent: %d\n" (Rvaas.Monitor.polls_sent s.monitor);
    Printf.printf "divergent switches vs. data plane: %d\n"
      (Rvaas.Snapshot.divergence snapshot ~actual:(Workload.Scenario.actual_flows s));
    Printf.printf "snapshot age: %.1f ms\n"
      (1000.0 *. Rvaas.Snapshot.age snapshot ~now:(Netsim.Sim.now (Netsim.Net.sim s.net)));
    Printf.printf "history entries: %d\n" (List.length (Rvaas.Monitor.history s.monitor));
    0
  in
  Cmd.v
    (Cmd.info "monitor" ~doc:"Report configuration-monitoring statistics after 1 s.")
    Term.(
      const run $ topo_arg $ size_arg $ clients_arg $ seed_arg $ polling_arg
      $ poll_period_arg $ loss_arg $ frontend_term)

(* ---- wiring subcommand ---- *)

let wiring_cmd =
  let run kind size clients seed polling period loss frontend =
    let s = build kind size clients seed polling period loss frontend in
    let report = ref None in
    Rvaas.Monitor.verify_wiring s.monitor ~timeout:0.5 ~on_complete:(fun r ->
        report := Some r);
    Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 1.0);
    match !report with
    | None ->
      print_endline "verification did not complete";
      1
    | Some r ->
      Printf.printf "probes sent: %d\nconfirmed: %d\nmisdelivered: %d\nmissing: %d\n"
        r.Rvaas.Monitor.probes_sent r.confirmed
        (List.length r.misdelivered) (List.length r.missing);
      List.iter
        (fun (sw, port) -> Printf.printf "  missing: probe out of sw%d port %d\n" sw port)
        r.missing;
      if r.misdelivered = [] && r.missing = [] then begin
        print_endline "wiring matches the trusted plan";
        0
      end
      else 2
  in
  Cmd.v
    (Cmd.info "wiring" ~doc:"Verify the physical wiring with LLDP-like probes.")
    Term.(
      const run $ topo_arg $ size_arg $ clients_arg $ seed_arg $ polling_arg
      $ poll_period_arg $ loss_arg $ frontend_term)

(* ---- traceback subcommand ---- *)

let traceback_cmd =
  let run kind size clients seed polling period loss frontend attack =
    let s = build kind size clients seed polling period loss frontend in
    Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
    let snapshot = Rvaas.Monitor.snapshot s.monitor in
    let baseline_flows =
      List.map
        (fun sw -> (sw, Rvaas.Snapshot.flows snapshot ~sw))
        (Rvaas.Snapshot.switches snapshot)
    in
    let now () = Netsim.Sim.now (Netsim.Net.sim s.net) in
    let attack_value =
      match attack with
      | `Join -> Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 }
      | `Exfiltrate -> Sdnctl.Attack.Exfiltrate { victim_host = 2; attacker_host = 1 }
      | `Blackhole -> Sdnctl.Attack.Blackhole { victim_host = 2 }
      | `Meter -> Sdnctl.Attack.Meter_squeeze { victim_host = 2; rate_kbps = 50 }
      | `Transient ->
        Sdnctl.Attack.Transient
          {
            attack = Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 };
            start = now () +. 0.05;
            duration = 0.1;
          }
    in
    Printf.printf "launching: %s\n" (Sdnctl.Attack.describe attack_value);
    Sdnctl.Attack.launch s.net s.addressing
      ~conn:(Sdnctl.Provider.conn s.provider)
      attack_value;
    Workload.Scenario.run s ~until:(now () +. 0.5);
    let topo = Netsim.Net.topology s.net in
    let victim =
      List.find
        (fun (e : Rvaas.Verifier.endpoint) -> e.host = 0)
        (Rvaas.Verifier.access_points topo)
    in
    let incidents =
      Rvaas.Traceback.investigate ~baseline_flows
        ~history:(Rvaas.Monitor.history s.monitor) topo ~victim
    in
    if incidents = [] then begin
      print_endline "no foreign rules in the monitored history";
      0
    end
    else begin
      List.iter (fun i -> Format.printf "%a@." Rvaas.Traceback.pp_incident i) incidents;
      2
    end
  in
  Cmd.v
    (Cmd.info "traceback"
       ~doc:"Launch an attack, then trace its ingress points from the history.")
    Term.(
      const run $ topo_arg $ size_arg $ clients_arg $ seed_arg $ polling_arg
      $ poll_period_arg $ loss_arg $ frontend_term $ attack_arg)

(* ---- failover subcommand ---- *)

let crash_after_arg =
  Arg.(
    value & opt float 0.003
    & info [ "crash-after" ] ~docv:"SECONDS"
        ~doc:"How long after the query goes out the primary is killed.")

let standbys_arg =
  Arg.(
    value & opt int 1
    & info [ "standbys" ] ~docv:"N"
        ~doc:
          "Warm standbys tailing the journal. With several, takeover goes \
           through the journalled claim election (lowest claiming standby id \
           wins).")

let failover_cmd =
  let run kind size clients seed polling period loss host qkind crash_after standbys =
    let topo = make_topo kind size in
    let s =
      Workload.Scenario.build
        {
          (Workload.Scenario.default_spec topo) with
          clients;
          seed;
          polling = make_polling polling period;
          rvaas_loss = loss;
          agent_resend = Some 0.12;
          ha = Some { Rvaas.Failover.default_config with standbys = max 0 standbys };
        }
    in
    let now () = Netsim.Sim.now (Netsim.Net.sim s.net) in
    let stamp fmt =
      Printf.printf "%8.1f ms  " (1000.0 *. now ());
      Printf.printf fmt
    in
    Workload.Scenario.run s ~until:(now () +. 0.2);
    let ctrl = Workload.Scenario.controller s in
    let agent = Workload.Scenario.agent s ~host in
    let result = ref None in
    Rvaas.Client_agent.set_answer_callback agent (fun o -> result := Some o);
    ignore (Rvaas.Client_agent.send_query agent (to_query qkind));
    stamp "query issued from host %d (generation %d serving)\n" host
      (Rvaas.Failover.generation ctrl);
    Workload.Scenario.run s ~until:(now () +. crash_after);
    Rvaas.Failover.crash ctrl;
    stamp "primary crashed: service dead, polling stopped, session down\n";
    stamp "%d warm standby%s armed (takeover after %.0f ms of journal silence)\n"
      (Rvaas.Failover.standby_count ctrl)
      (if Rvaas.Failover.standby_count ctrl = 1 then "" else "s")
      (1000.0 *. Rvaas.Failover.default_config.takeover_timeout);
    let deadline = now () +. 2.0 in
    while !result = None && now () < deadline do
      Workload.Scenario.run s ~until:(now () +. 0.01)
    done;
    Workload.Scenario.run s ~until:(now () +. 0.2);
    (match Rvaas.Failover.last_takeover ctrl with
    | None -> print_endline "standby never took over"
    | Some r ->
      Printf.printf "%8.1f ms  standby detected the silence (%.1f ms after the crash)\n"
        (1000.0 *. r.Rvaas.Failover.detected_at)
        (1000.0 *. (r.Rvaas.Failover.detected_at -. r.Rvaas.Failover.crashed_at));
      Printf.printf
        "%8.1f ms  takeover by standby %d: generation %d, %d journal entries \
         replayed, %d in-flight quer%s re-issued\n"
        (1000.0 *. r.Rvaas.Failover.taken_over_at)
        r.Rvaas.Failover.winner r.Rvaas.Failover.generation
        r.Rvaas.Failover.replayed_entries r.Rvaas.Failover.reissued_queries
        (if r.Rvaas.Failover.reissued_queries = 1 then "y" else "ies");
      if r.Rvaas.Failover.resynced_at > 0.0 then
        Printf.printf "%8.1f ms  resynchronised: poll sweep drained (blind window %.1f ms)\n"
          (1000.0 *. r.Rvaas.Failover.resynced_at)
          (1000.0 *. (r.Rvaas.Failover.resynced_at -. r.Rvaas.Failover.crashed_at)));
    match !result with
    | None ->
      print_endline "no answer (timeout)";
      1
    | Some outcome ->
      Printf.printf "%8.1f ms  answer delivered to host %d\n"
        (1000.0 *. outcome.Rvaas.Client_agent.answered_at)
        host;
      Format.printf "%a@." Rvaas.Query.pp_answer outcome.Rvaas.Client_agent.answer;
      0
  in
  Cmd.v
    (Cmd.info "failover"
       ~doc:
         "Kill the primary RVaaS controller mid-query and print the warm standby's \
          takeover timeline.")
    Term.(
      const run $ topo_arg $ size_arg $ clients_arg $ seed_arg $ polling_arg
      $ poll_period_arg $ loss_arg $ host_arg $ kind_arg $ crash_after_arg
      $ standbys_arg)

(* ---- persist subcommand ---- *)

let dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Segmented journal store directory (sealed segments + active tail).")

let segment_bytes_arg =
  Arg.(
    value & opt int 4096
    & info [ "segment-bytes" ] ~docv:"BYTES"
        ~doc:"Seal segments at this size.")

let encrypt_arg =
  Arg.(
    value & flag
    & info [ "encrypt" ]
        ~doc:
          "Encrypt journal frames at rest. The key derives from the service \
           keypair, hence from $(b,--seed); pass the same seed to \
           $(b,recover).")

let duration_arg =
  Arg.(
    value & opt float 1.0
    & info [ "duration" ] ~docv:"SECONDS"
        ~doc:"Simulated monitoring time before the run phase exits.")

let phase_arg =
  Arg.(
    required
    & pos 0 (some (enum [ ("run", `Run); ("recover", `Recover) ])) None
    & info [] ~docv:"PHASE"
        ~doc:"$(b,run) journals a monitored deployment to --dir and exits \
              abruptly; $(b,recover), in a later process, rebuilds the \
              controller state from the directory alone.")

let digest_lines snapshot =
  Rvaas.Snapshot.digest_vector snapshot
  |> List.map (fun (sw, d) -> Printf.sprintf "  switch %d digest %Lx" sw d)

let persist_cmd =
  let report_recovery ~src log =
    let r = Rvaas.Journal.recover log in
    Printf.printf
      "recovered %d verified entries from %s (generation %d, %d mutations \
       replayed over the last checkpoint, %d open queries)\n"
      (List.length (Support.Journal.valid_prefix log))
      src r.Rvaas.Journal.generation r.Rvaas.Journal.replayed
      (List.length r.Rvaas.Journal.open_queries);
    List.iter print_endline (digest_lines r.Rvaas.Journal.snapshot);
    0
  in
  (* The at-rest key derives from the service keypair, which derives
     from the seeded rng: rebuilding the scenario (sans persistence)
     with the same topology and seed re-derives the key — the
     key-escrow stand-in for a recovery process. *)
  let rederive_key kind size seed =
    let topo = make_topo kind size in
    let s =
      Workload.Scenario.build
        { (Workload.Scenario.default_spec topo) with seed }
    in
    Workload.Scenario.storage_key s
  in
  let run phase kind size seed dir duration segment_bytes encrypt =
    match phase with
    | `Run ->
      let topo = make_topo kind size in
      let s =
        Workload.Scenario.build
          {
            (Workload.Scenario.default_spec topo) with
            seed;
            polling = Rvaas.Monitor.Periodic 0.02;
            ha = Some { Rvaas.Failover.default_config with auto_compact = true };
            persist =
              Some
                {
                  Workload.Scenario.p_dir = dir;
                  p_segment_bytes = segment_bytes;
                  p_encrypt = encrypt;
                };
          }
      in
      let log =
        Rvaas.Journal.log (Rvaas.Failover.journal (Workload.Scenario.controller s))
      in
      Workload.Scenario.run s ~until:duration;
      let store = Workload.Scenario.store s in
      Printf.printf
        "ran %.2f s of monitoring; journal: %d entries, %d bytes in %s (%d \
         sealed + 1 active segment%s, %d seals, %d dropped by compaction)\n"
        duration (Support.Journal.length log)
        (Support.Segment_store.written_bytes store)
        dir
        (Support.Segment_store.sealed_count store)
        (if encrypt then ", encrypted" else "")
        (Support.Segment_store.seals store)
        (Support.Segment_store.sealed_deleted store);
      List.iter print_endline
        (digest_lines (Rvaas.Monitor.snapshot (Workload.Scenario.monitor s)));
      (* exit without closing anything: recovery must not depend on a
         graceful shutdown *)
      0
    | `Recover -> (
      let crypt =
        if encrypt then
          Some (Cryptosim.Atrest.crypt ~key:(rederive_key kind size seed))
        else None
      in
      match Support.Segment_store.recover_from_dir ?crypt dir with
      | Error msg ->
        Printf.printf "recovery failed: %s\n" msg;
        1
      | Ok log -> report_recovery ~src:dir log)
  in
  Cmd.v
    (Cmd.info "persist"
       ~doc:
         "Two-phase kill-and-restart: journal a deployment to a segmented \
          store on disk (optionally encrypted at rest), then recover it in a \
          fresh process. Matching digest vectors across the two phases \
          demonstrate exact state recovery from the disk bytes alone.")
    Term.(
      const run $ phase_arg $ topo_arg $ size_arg $ seed_arg $ dir_arg
      $ duration_arg $ segment_bytes_arg $ encrypt_arg)

let main =
  Cmd.group
    (Cmd.info "rvaas-cli" ~version:"1.0.0"
       ~doc:"Routing-Verification-as-a-Service: deployments, queries and attacks.")
    [
      topo_cmd;
      query_cmd;
      attack_cmd;
      monitor_cmd;
      wiring_cmd;
      traceback_cmd;
      failover_cmd;
      persist_cmd;
    ]

let () = exit (Cmd.eval' main)
