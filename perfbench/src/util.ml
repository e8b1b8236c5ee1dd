(* Measurement plumbing shared by the workloads: clocks, growable
   buffers, order statistics, process memory, GC deltas, JSON output. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now_s () = float_of_int (now_ns ()) /. 1e9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* ---- the machine's speed ----------------------------------------------- *)

(* The shared 2-vCPU reference host does not run at one speed: a fixed
   computation takes up to 1.8x longer at some times than at others, in
   stretches from a second to minutes, and the same drive's wall time
   moved 1.7x across ten consecutive runs.  So every wall-clock metric
   is scaled to a steady machine: beside each unit of work the benchmark
   times this fixed reference computation, which shares no code with
   the repository, and multiplies the unit's wall times by
   [reference_nominal_s /. reference time].  A change to the program
   moves the scaled metrics as it moves the raw ones; a change of the
   machine's speed moves the reference as well and cancels out.  The
   raw figures are kept in each run's metadata line. *)

(* A pointer chase through a 4 MiB table with integer mixing (cache
   and memory behaviour), then short-lived allocation into a small hash
   table (the minor heap) — the two kinds of work the program does. *)
let reference_table =
  lazy (Array.init (1 lsl 19) (fun i -> (i * 0x9E3779B1) land ((1 lsl 19) - 1)))

let reference_kernel () =
  let a = Lazy.force reference_table in
  let mask = Array.length a - 1 in
  let j = ref 0 and acc = ref 0 in
  for _ = 1 to 60_000 do
    j := a.(!j);
    acc := ((!acc * 31) + !j) land max_int;
    j := (!j + !acc) land mask
  done;
  let h = Hashtbl.create 64 in
  for i = 0 to 19_999 do
    Hashtbl.replace h (i land 511) (string_of_int i)
  done;
  !acc + Hashtbl.length h

(* The reference computation's time on the reference host at its
   steady (slower) speed, so scaled times read as seconds there. *)
let reference_nominal_s = 0.005

(* One timing of the reference computation (the median of three, so a
   preemption inside one does not count). *)
let reference_s () =
  let once () =
    let t0 = now_s () in
    ignore (Sys.opaque_identity (reference_kernel ()));
    now_s () -. t0
  in
  let a = once () and b = once () and c = once () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)

(* The factor that scales a wall time taken while the reference
   computation took [r] seconds to the steady reference host. *)
let scale r = reference_nominal_s /. r

(* Growable arrays: the drives record one entry per query and must not
   pay list reversals or copies on the hot path. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 64 dummy; len = 0; dummy }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) v.dummy in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len

  let get v i = v.data.(i)

  let set v i x = v.data.(i) <- x

  let to_list v = List.init v.len (fun i -> v.data.(i))

  let iteri f v =
    for i = 0 to v.len - 1 do
      f i v.data.(i)
    done
end

(* Nearest-rank quantile of an unsorted sample; nan when empty. *)
let quantile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    Array.sort compare a;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))
  end

let median xs = quantile 0.5 xs

(* Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    float_of_int kb /. 1024.0

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_delta a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_collections = b.major_collections - a.major_collections;
  }

(* 63-bit FNV-1a over a list of ints: a compact fingerprint of an
   answer's endpoint set, so every answer can be kept for the parity
   check without keeping the answer. *)
let fnv_ints xs =
  List.fold_left
    (fun h x -> (h lxor (x land 0xFFFFFFFF)) * 0x100000001b3 land max_int)
    0x0bf29ce484222325 xs

let endpoint_fingerprint pairs =
  fnv_ints (List.concat_map (fun (sw, port) -> [ sw; port ]) (List.sort compare pairs))

(* Directory helpers for the benchmark's private temp dirs. *)
let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Minimal JSON emitter: the benchmark's records are flat. *)
type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Obj of (string * json) list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec json_to_string = function
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else if Float.is_finite f then Printf.sprintf "%.17g" f
    else "null"
  | Int i -> string_of_int i
  | Str s -> json_string s
  | Bool b -> string_of_bool b
  | Obj kvs ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ json_to_string v) kvs)
    ^ "}"
