(* Unit + property tests for the support substrate. *)

let check = Alcotest.check

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Support.Rng.create 7 and b = Support.Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Support.Rng.int a 1000) (Support.Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Support.Rng.create 7 in
  let b = Support.Rng.split a in
  (* Drawing from the split stream must not equal just continuing [a]'s
     stream from the same point (they are distinct states). *)
  let xs = List.init 20 (fun _ -> Support.Rng.int a 1_000_000)
  and ys = List.init 20 (fun _ -> Support.Rng.int b 1_000_000) in
  check Alcotest.bool "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Support.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Support.Rng.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Support.Rng.int_range rng (-5) 5 in
    check Alcotest.bool "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_float_bounds () =
  let rng = Support.Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Support.Rng.float rng 3.0 in
    check Alcotest.bool "float in range" true (v >= 0.0 && v < 3.0)
  done

let test_rng_bernoulli_extremes () =
  let rng = Support.Rng.create 3 in
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never" false (Support.Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    check Alcotest.bool "p=1 always" true (Support.Rng.bernoulli rng 1.0)
  done

let test_rng_exponential_mean () =
  let rng = Support.Rng.create 4 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Support.Rng.exponential rng ~mean:2.0
  done;
  let mean = !total /. float_of_int n in
  check Alcotest.bool "sample mean near 2.0" true (abs_float (mean -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Support.Rng.create 5 in
  let xs = List.init 50 Fun.id in
  let ys = Support.Rng.shuffle rng xs in
  check (Alcotest.list Alcotest.int) "same multiset" xs (List.sort compare ys)

let test_rng_sample () =
  let rng = Support.Rng.create 6 in
  let xs = List.init 30 Fun.id in
  let s = Support.Rng.sample rng 10 xs in
  check Alcotest.int "sample size" 10 (List.length s);
  check Alcotest.int "distinct" 10 (List.length (List.sort_uniq compare s));
  check (Alcotest.list Alcotest.int) "sample of small list is the list" [ 1; 2 ]
    (Support.Rng.sample rng 5 [ 1; 2 ])

let test_rng_invalid () =
  let rng = Support.Rng.create 0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Support.Rng.int rng 0));
  Alcotest.check_raises "pick []" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Support.Rng.pick rng []))

(* ---- Pqueue ---- *)

let test_pqueue_order () =
  let q = Support.Pqueue.create () in
  Support.Pqueue.push q 3.0 "c";
  Support.Pqueue.push q 1.0 "a";
  Support.Pqueue.push q 2.0 "b";
  let pop () = match Support.Pqueue.pop q with Some (_, v) -> v | None -> "!" in
  check Alcotest.string "first" "a" (pop ());
  check Alcotest.string "second" "b" (pop ());
  check Alcotest.string "third" "c" (pop ());
  check Alcotest.bool "empty" true (Support.Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Support.Pqueue.create () in
  List.iter (fun v -> Support.Pqueue.push q 1.0 v) [ 1; 2; 3; 4; 5 ];
  let popped = List.init 5 (fun _ -> snd (Option.get (Support.Pqueue.pop q))) in
  check (Alcotest.list Alcotest.int) "FIFO within equal priority" [ 1; 2; 3; 4; 5 ] popped

let test_pqueue_random_sorted () =
  let rng = Support.Rng.create 9 in
  let q = Support.Pqueue.create () in
  let priorities = List.init 500 (fun _ -> Support.Rng.float rng 100.0) in
  List.iter (fun p -> Support.Pqueue.push q p p) priorities;
  let rec drain acc =
    match Support.Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
  in
  let drained = drain [] in
  check (Alcotest.list (Alcotest.float 0.0)) "drains in sorted order"
    (List.sort compare priorities) drained

let test_pqueue_peek () =
  let q = Support.Pqueue.create () in
  check Alcotest.bool "peek empty" true (Support.Pqueue.peek q = None);
  Support.Pqueue.push q 5.0 "x";
  check Alcotest.bool "peek keeps element" true
    (Support.Pqueue.peek q <> None && Support.Pqueue.length q = 1)

(* ---- Ring ---- *)

let test_ring_eviction () =
  let r = Support.Ring.create 3 in
  List.iter (Support.Ring.push r) [ 1; 2; 3; 4; 5 ];
  check (Alcotest.list Alcotest.int) "keeps most recent" [ 3; 4; 5 ] (Support.Ring.to_list r);
  check Alcotest.int "length" 3 (Support.Ring.length r);
  check Alcotest.int "capacity" 3 (Support.Ring.capacity r)

let test_ring_partial () =
  let r = Support.Ring.create 10 in
  List.iter (Support.Ring.push r) [ 1; 2 ];
  check (Alcotest.list Alcotest.int) "partial fill" [ 1; 2 ] (Support.Ring.to_list r);
  check Alcotest.bool "latest" true (Support.Ring.latest r = Some 2)

let test_ring_find () =
  let r = Support.Ring.create 5 in
  List.iter (Support.Ring.push r) [ 1; 2; 3; 4 ];
  check Alcotest.bool "find most recent even" true
    (Support.Ring.find r ~f:(fun x -> x mod 2 = 0) = Some 4);
  check Alcotest.bool "find missing" true (Support.Ring.find r ~f:(fun x -> x > 9) = None)

let test_ring_fold_clear () =
  let r = Support.Ring.create 4 in
  List.iter (Support.Ring.push r) [ 1; 2; 3 ];
  check Alcotest.int "fold sum" 6 (Support.Ring.fold r ~init:0 ~f:( + ));
  Support.Ring.clear r;
  check Alcotest.int "cleared" 0 (Support.Ring.length r)

(* ---- Stats ---- *)

let test_stats_mean_stddev () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Support.Stats.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "mean empty" 0.0 (Support.Stats.mean []);
  check (Alcotest.float 1e-9) "stddev constant" 0.0 (Support.Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check (Alcotest.float 1e-6) "stddev" (sqrt (2.0 /. 3.0))
    (Support.Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-9) "p50" 50.0 (Support.Stats.percentile 50.0 xs);
  check (Alcotest.float 1e-9) "p99" 99.0 (Support.Stats.percentile 99.0 xs);
  check (Alcotest.float 1e-9) "p100" 100.0 (Support.Stats.percentile 100.0 xs)

let test_stats_minmax_histogram () =
  check (Alcotest.float 1e-9) "min" 1.0 (Support.Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "max" 3.0 (Support.Stats.maximum [ 3.0; 1.0; 2.0 ]);
  let h = Support.Stats.histogram ~buckets:2 ~lo:0.0 ~hi:10.0 [ 1.0; 2.0; 9.0 ] in
  check (Alcotest.array Alcotest.int) "histogram" [| 2; 1 |] h

(* ---- Pool ---- *)

let test_pool_ordering () =
  let pool = Support.Pool.create 4 in
  let xs = Array.init 100 Fun.id in
  let expected = Array.map (fun x -> x * x) xs in
  check (Alcotest.array Alcotest.int) "parmap preserves order" expected
    (Support.Pool.parmap pool (fun x -> x * x) xs);
  check (Alcotest.list Alcotest.int) "map_list" [ 2; 4; 6 ]
    (Support.Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ]);
  Support.Pool.shutdown pool

let test_pool_sequential_fallback () =
  let pool = Support.Pool.create 1 in
  check Alcotest.int "size" 1 (Support.Pool.size pool);
  let here = Domain.self () in
  let ran_in =
    Support.Pool.parmap pool (fun _ -> Domain.self ()) (Array.init 8 Fun.id)
  in
  Array.iter
    (fun d -> check Alcotest.bool "pool_size=1 runs in the caller" true (d = here))
    ran_in;
  Support.Pool.shutdown pool

let test_pool_exception_propagation () =
  let pool = Support.Pool.create 4 in
  Alcotest.check_raises "first failing index wins" (Failure "boom-3") (fun () ->
      ignore
        (Support.Pool.parmap pool
           (fun i -> if i >= 3 then failwith (Printf.sprintf "boom-%d" i) else i)
           (Array.init 16 Fun.id)));
  (* The pool survives a failed batch. *)
  check (Alcotest.array Alcotest.int) "usable after failure" [| 0; 2; 4 |]
    (Support.Pool.parmap pool (fun i -> 2 * i) [| 0; 1; 2 |]);
  Support.Pool.shutdown pool

let test_pool_nested_calls () =
  let pool = Support.Pool.create 3 in
  (* A task that itself calls parmap must degrade to sequential rather
     than deadlock on the shared job queue. *)
  let got =
    Support.Pool.parmap pool
      (fun i ->
        Array.fold_left ( + ) 0
          (Support.Pool.parmap pool (fun j -> i + j) (Array.init 5 Fun.id)))
      (Array.init 6 Fun.id)
  in
  check (Alcotest.array Alcotest.int) "nested values" (Array.init 6 (fun i -> (5 * i) + 10)) got;
  Support.Pool.shutdown pool

let test_pool_init_per_worker () =
  let pool = Support.Pool.create 4 in
  let inits = Atomic.make 0 in
  let got =
    Support.Pool.parmap_init pool
      ~init:(fun () -> Atomic.incr inits)
      ~f:(fun () x -> x + 1)
      (Array.init 64 Fun.id)
  in
  check (Alcotest.array Alcotest.int) "values" (Array.init 64 (fun i -> i + 1)) got;
  let n = Atomic.get inits in
  check Alcotest.bool "init runs once per participating domain" true (n >= 1 && n <= 4);
  Support.Pool.shutdown pool

let test_pool_edge_cases () =
  Alcotest.check_raises "size 0 rejected"
    (Invalid_argument "Pool.create: size must be >= 1") (fun () ->
      ignore (Support.Pool.create 0));
  let pool = Support.Pool.create 4 in
  check (Alcotest.list Alcotest.int) "empty input" []
    (Support.Pool.map_list pool Fun.id []);
  Support.Pool.shutdown pool;
  Support.Pool.shutdown pool;
  (* idempotent; a stopped pool degrades to sequential *)
  check (Alcotest.list Alcotest.int) "post-shutdown sequential" [ 2; 4 ]
    (Support.Pool.map_list pool (fun x -> 2 * x) [ 1; 2 ]);
  check Alcotest.bool "default_size positive" true (Support.Pool.default_size () >= 1)

let test_pool_init_poison () =
  let pool = Support.Pool.create 4 in
  (* A failing init must reach the caller like a task failure — and
     must not leave the workers wedged or the pool unusable. *)
  Alcotest.check_raises "worker init failure reaches the caller" (Failure "bad init")
    (fun () ->
      ignore
        (Support.Pool.parmap_init pool
           ~init:(fun () -> failwith "bad init")
           ~f:(fun () x -> x)
           (Array.init 32 Fun.id)));
  check (Alcotest.array Alcotest.int) "pool usable after poisoned init"
    (Array.init 8 (fun i -> i + 1))
    (Support.Pool.parmap_init pool ~init:(fun () -> 1) ~f:( + ) (Array.init 8 Fun.id));
  Support.Pool.shutdown pool

(* ---- qcheck properties ---- *)

let prop_pqueue_sorted =
  QCheck2.Test.make ~name:"pqueue drains sorted" ~count:200
    QCheck2.Gen.(list (float_bound_inclusive 1000.0))
    (fun priorities ->
      let q = Support.Pqueue.create () in
      List.iter (fun p -> Support.Pqueue.push q p ()) priorities;
      let rec drain acc =
        match Support.Pqueue.pop q with
        | None -> List.rev acc
        | Some (p, ()) -> drain (p :: acc)
      in
      drain [] = List.sort compare priorities)

let prop_ring_suffix =
  QCheck2.Test.make ~name:"ring keeps the last k items" ~count:200
    QCheck2.Gen.(pair (int_range 1 20) (list int))
    (fun (cap, xs) ->
      let r = Support.Ring.create cap in
      List.iter (Support.Ring.push r) xs;
      let expected =
        let n = List.length xs in
        List.filteri (fun i _ -> i >= n - cap) xs
      in
      Support.Ring.to_list r = expected)

let () =
  Alcotest.run "support"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample" `Quick test_rng_sample;
          Alcotest.test_case "invalid arguments" `Quick test_rng_invalid;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "basic order" `Quick test_pqueue_order;
          Alcotest.test_case "FIFO ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "random drains sorted" `Quick test_pqueue_random_sorted;
          Alcotest.test_case "peek" `Quick test_pqueue_peek;
          QCheck_alcotest.to_alcotest prop_pqueue_sorted;
        ] );
      ( "ring",
        [
          Alcotest.test_case "eviction" `Quick test_ring_eviction;
          Alcotest.test_case "partial fill" `Quick test_ring_partial;
          Alcotest.test_case "find" `Quick test_ring_find;
          Alcotest.test_case "fold and clear" `Quick test_ring_fold_clear;
          QCheck_alcotest.to_alcotest prop_ring_suffix;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "minmax/histogram" `Quick test_stats_minmax_histogram;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parmap ordering" `Quick test_pool_ordering;
          Alcotest.test_case "sequential fallback" `Quick test_pool_sequential_fallback;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagation;
          Alcotest.test_case "nested calls" `Quick test_pool_nested_calls;
          Alcotest.test_case "per-worker init" `Quick test_pool_init_per_worker;
          Alcotest.test_case "edge cases" `Quick test_pool_edge_cases;
          Alcotest.test_case "init poisoning" `Quick test_pool_init_poison;
        ] );
    ]
