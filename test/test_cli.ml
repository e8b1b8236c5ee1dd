(* System test: drive the built [rvaas_cli] binary.

   [query] and [attack] run one client query against a fresh
   deployment — benign, then after a join attack — and must print the
   policy verdict the serving engine has always produced for them;
   the benign query also runs behind a settle tick.  [topo], [monitor]
   and [wiring] on the same small world must print exactly the lines
   recorded below (the simulation is seeded, so they never vary).

   [persist run --dir D] journals a monitored deployment into a
   segmented store and exits without closing it; [persist recover
   --dir D], in a fresh process, rebuilds the controller state from
   the directory alone.  Both phases print the per-switch digest
   vector, which must agree line for line — plain and encrypted at
   rest.  The binary's path is the first command-line argument (the
   dune rule passes it). *)

let check = Alcotest.check

let cli = ref "rvaas_cli"

(* Run the CLI with [args]; returns (exit code, stdout lines). *)
let run_cli args =
  let out = Filename.temp_file "rvaas_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let pid =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.create_process !cli
              (Array.of_list (!cli :: args))
              Unix.stdin fd Unix.stderr)
      in
      let code =
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
      in
      let ic = open_in out in
      let rec lines acc =
        match input_line ic with
        | l -> lines (l :: acc)
        | exception End_of_file ->
          close_in ic;
          List.rev acc
      in
      (code, lines []))

let with_store_dir f =
  let dir = Filename.temp_file "rvaas_cli_store" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun g -> Sys.remove (Filename.concat dir g)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let digest_lines lines =
  List.filter
    (fun l ->
      match String.split_on_char ' ' (String.trim l) with
      | [ "switch"; _; "digest"; _ ] -> true
      | _ -> false)
    lines

let round_trip extra () =
  with_store_dir (fun dir ->
      let common = [ "--topo"; "linear"; "--size"; "4"; "--seed"; "42"; "--dir"; dir ] in
      let code, ran = run_cli ([ "persist"; "run" ] @ common @ extra) in
      check Alcotest.int "run phase exits 0" 0 code;
      let code, recovered = run_cli ([ "persist"; "recover" ] @ common @ extra) in
      check Alcotest.int "recover phase exits 0" 0 code;
      let ran = digest_lines ran and recovered = digest_lines recovered in
      check Alcotest.int "one digest line per switch" 4 (List.length ran);
      check (Alcotest.list Alcotest.string) "recovered digests equal the live ones" ran
        recovered)

let help_mentions cmd opt =
  let code, help = run_cli [ cmd; "--help=plain" ] in
  check Alcotest.int "help exits 0" 0 code;
  List.exists
    (fun l ->
      let l = String.trim l in
      String.length l >= String.length opt && String.sub l 0 (String.length opt) = opt)
    help

let test_help_lists_dir () =
  check Alcotest.bool "--dir documented" true (help_mentions "persist" "--dir");
  check Alcotest.bool "no --state option" false (help_mentions "persist" "--state");
  check Alcotest.bool "no --segmented option" false (help_mentions "persist" "--segmented")

let small_world = [ "--topo"; "linear"; "--size"; "4"; "--seed"; "42" ]

let verdict ?(extra = []) cmd ~exit_code ~line () =
  let code, out = run_cli ((cmd :: small_world) @ extra) in
  check Alcotest.int "exit code" exit_code code;
  check Alcotest.bool (Printf.sprintf "prints %S" line) true (List.mem line out)

let test_help_has_no_engine () =
  check Alcotest.bool "--kind documented" true (help_mentions "query" "--kind");
  check Alcotest.bool "no --engine option" false (help_mentions "query" "--engine")

let test_help_has_no_sharing_switch () =
  check Alcotest.bool "--batch-window documented" true
    (help_mentions "query" "--batch-window");
  check Alcotest.bool "no --coalesce option" false (help_mentions "query" "--coalesce");
  check Alcotest.bool "no --subsume option" false (help_mentions "query" "--subsume")

(* Whole-output regression: [args] must print exactly [expected]. *)
let prints args expected () =
  let code, out = run_cli args in
  check Alcotest.int "exit code" 0 code;
  check (Alcotest.list Alcotest.string) "output" expected out

let topo_lines =
  [
    "switches: 4";
    "hosts: 4";
    "links: 7";
    "  s0:1 -- s1:1 (100.0 us)";
    "  s1:2 -- s2:1 (100.0 us)";
    "  s2:2 -- s3:1 (100.0 us)";
    "  h0:0 -- s0:0 (100.0 us)";
    "  h1:0 -- s1:0 (100.0 us)";
    "  h2:0 -- s2:0 (100.0 us)";
    "  h3:0 -- s3:0 (100.0 us)";
  ]

let monitor_lines =
  [
    "switches monitored: 4";
    "believed rules: 28";
    "events seen: 72 (lost: 0)";
    "polls sent: 64";
    "divergent switches vs. data plane: 0";
    "snapshot age: 116.3 ms";
    "history entries: 136";
  ]

let wiring_lines =
  [
    "probes sent: 6";
    "confirmed: 6";
    "misdelivered: 0";
    "missing: 0";
    "wiring matches the trusted plan";
  ]

let () =
  if Array.length Sys.argv > 1 then cli := Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      ( "persist",
        [
          Alcotest.test_case "run then recover: digests match" `Quick
            (round_trip []);
          Alcotest.test_case "encrypted run then recover: digests match" `Quick
            (round_trip [ "--encrypt" ]);
          Alcotest.test_case "help lists --dir, not --state" `Quick
            test_help_lists_dir;
        ] );
      ( "query",
        [
          Alcotest.test_case "benign query is clean" `Quick
            (verdict "query" ~exit_code:0 ~line:"policy check: clean");
          Alcotest.test_case "join attack raises the alarm" `Quick
            (verdict "attack" ~exit_code:2
               ~line:"ALARM: unknown access point sw=1 port=0 can reach the client");
          Alcotest.test_case "help has no --engine" `Quick test_help_has_no_engine;
          Alcotest.test_case "shared front-end query is clean" `Quick
            (verdict "query" ~extra:[ "--batch-window"; "0.002" ] ~exit_code:0
               ~line:"policy check: clean");
          Alcotest.test_case "help has no --coalesce, no --subsume" `Quick
            test_help_has_no_sharing_switch;
        ] );
      ( "world",
        [
          Alcotest.test_case "topo prints the wiring plan" `Quick
            (prints [ "topo"; "--topo"; "linear"; "--size"; "4" ] topo_lines);
          Alcotest.test_case "monitor statistics" `Quick
            (prints ("monitor" :: small_world) monitor_lines);
          Alcotest.test_case "wiring probes confirm the plan" `Quick
            (prints ("wiring" :: small_world) wiring_lines);
        ] );
    ]
