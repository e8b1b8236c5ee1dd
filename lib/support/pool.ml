type batch = {
  bm : Mutex.t;
  finished : Condition.t;
  mutable remaining : int;
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
      (* smallest failing input index — what a sequential run would
         raise first *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;
  mutable stopped : bool;
}

(* Set while a domain is executing a pool job: nested [parmap] calls
   fall back to sequential instead of re-entering the (single, shared)
   job queue, so they can never deadlock. *)
let inside_job : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let create size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  {
    size;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    jobs = Queue.create ();
    workers = [];
    stopped = false;
  }

let size t = t.size

let default_size () =
  let hw () = max 1 (Domain.recommended_domain_count ()) in
  match Sys.getenv_opt "RVAAS_JOBS" with
  | None -> hw ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> hw ())

let global_pool = ref None

let global () =
  match !global_pool with
  | Some p -> p
  | None ->
    let p = create (default_size ()) in
    global_pool := Some p;
    p

let run_job job =
  let inside = Domain.DLS.get inside_job in
  inside := true;
  Fun.protect ~finally:(fun () -> inside := false) job

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec take () =
      if t.stopped then None
      else
        match Queue.take_opt t.jobs with
        | Some job -> Some job
        | None ->
          Condition.wait t.nonempty t.mutex;
          take ()
    in
    let job = take () in
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some job ->
      run_job job;
      loop ()
  in
  loop ()

let ensure_workers t =
  if t.workers = [] && t.size > 1 && not t.stopped then
    t.workers <-
      List.init (t.size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t))

let parmap t f xs =
  let n = Array.length xs in
  if n <= 1 || t.size = 1 || t.stopped || !(Domain.DLS.get inside_job) then Array.map f xs
  else begin
    ensure_workers t;
    let results = Array.make n None in
    let batch =
      { bm = Mutex.create (); finished = Condition.create (); remaining = n; failed = None }
    in
    let job i () =
      let outcome = try Ok (f xs.(i)) with e -> Error (e, Printexc.get_raw_backtrace ()) in
      (match outcome with Ok v -> results.(i) <- Some v | Error _ -> ());
      Mutex.lock batch.bm;
      (match outcome with
      | Ok _ -> ()
      | Error (e, bt) -> (
        match batch.failed with
        | Some (j, _, _) when j < i -> ()
        | Some _ | None -> batch.failed <- Some (i, e, bt)));
      batch.remaining <- batch.remaining - 1;
      if batch.remaining = 0 then Condition.broadcast batch.finished;
      Mutex.unlock batch.bm
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add (job i) t.jobs
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    (* The caller participates until the queue drains, then waits out
       the jobs still in flight on other domains. *)
    let continue = ref true in
    while !continue do
      Mutex.lock t.mutex;
      let job = Queue.take_opt t.jobs in
      Mutex.unlock t.mutex;
      match job with
      | Some job -> run_job job
      | None -> continue := false
    done;
    Mutex.lock batch.bm;
    while batch.remaining > 0 do
      Condition.wait batch.finished batch.bm
    done;
    Mutex.unlock batch.bm;
    (match batch.failed with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list t f xs = Array.to_list (parmap t f (Array.of_list xs))

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.mutex;
    t.stopped <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end
