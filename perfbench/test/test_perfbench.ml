(* Tiny-scale run of every benchmark workload, traced and untraced:
   every metric BENCHMARK.json names is present and finite, every
   output check passes, and a deliberately wrong expected answer trips
   the output check. *)

open Perfbench

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let find_from s i sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go i

(* The ["name": "..."] values inside the JSON array under [key]. *)
let names_under text key =
  match find_from text 0 (Printf.sprintf "%S" key) with
  | None -> []
  | Some start ->
    let stop = Option.value ~default:(String.length text) (find_from text start "]") in
    let rec collect i acc =
      match find_from text i "\"name\": \"" with
      | Some j when j < stop ->
        let v0 = j + String.length "\"name\": \"" in
        let v1 = Option.get (find_from text v0 "\"") in
        collect v1 (String.sub text v0 (v1 - v0) :: acc)
      | _ -> List.rev acc
    in
    collect start []

let cfg ~trace ~corrupt =
  {
    World.seed = 3;
    seconds = 0.1;
    trace;
    tmpdir = "perfbench-test-tmp";
    tiny = true;
    corrupt;
  }

let () =
  Replay.min_seconds := 0.0;
  let spec = read_file "../../BENCHMARK.json" in
  check "BENCHMARK.json end_to_end names" (names_under spec "end_to_end" = List.map fst Bench.end_to_end);
  check "BENCHMARK.json per_layer names" (names_under spec "per_layer" = List.map fst Bench.per_layer);
  let names = List.map (fun (w : Bench.workload) -> w.name) (Bench.workloads (cfg ~trace:false ~corrupt:false)) in
  check "BENCHMARK.json workload names" (names_under spec "workloads" = names);
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let c = cfg ~trace ~corrupt:false in
          let r = Bench.run c name in
          Bench.cleanup c;
          let label = Printf.sprintf "%s (trace %b)" name trace in
          List.iter
            (fun (m, _) ->
              match List.assoc_opt m r.metrics with
              | None -> check (label ^ ": metric " ^ m ^ " missing") false
              | Some v -> check (Printf.sprintf "%s: metric %s = %g is finite" label m v) (Float.is_finite v))
            (if trace then Bench.per_layer else Bench.end_to_end);
          check (label ^ ": output checks pass") r.correct;
          check (label ^ ": nothing failed") (r.failed = 0 && r.attempted > 0))
        [ false; true ];
      let c = cfg ~trace:false ~corrupt:true in
      let r = Bench.run c name in
      Bench.cleanup c;
      check (name ^ ": a wrong expected answer trips the output check") (not r.correct))
    names;
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "perfbench tiny-scale tests passed"
