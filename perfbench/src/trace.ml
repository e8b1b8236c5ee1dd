(* In-memory spans around the benchmark's own calls into each layer.

   Off by default: every entry point checks [enabled] first, so the
   untraced run pays one branch per call site.  When on, each span
   records its name, start, end, the span that was open when it began
   (its parent) and a query id shared by all spans of one query (-1
   when the span belongs to no single query).  Spans are written out
   once, when the run ends. *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  mutable stop_ns : int;
  parent : int;
  mutable qid : int;
}

let enabled = ref false

let spans : span Util.Vec.t =
  Util.Vec.create { id = -1; name = ""; start_ns = 0; stop_ns = 0; parent = -1; qid = -1 }

let stack = ref []

let reset ~on =
  enabled := on;
  spans.Util.Vec.len <- 0;
  stack := []

let with_span ?(qid = -1) name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with [] -> -1 | p :: _ -> p in
    let id = Util.Vec.length spans in
    let sp = { id; name; start_ns = Util.now_ns (); stop_ns = 0; parent; qid } in
    Util.Vec.push spans sp;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        sp.stop_ns <- Util.now_ns ();
        stack := List.tl !stack)
      f
  end

(* [tag qid] attaches the innermost open span to query [qid] — for
   spans whose query is only known once a payload is decoded. *)
let tag qid =
  if !enabled then
    match !stack with [] -> () | id :: _ -> (Util.Vec.get spans id).qid <- qid

(* Total duration (s), count and self time (duration minus the time
   covered by direct children, s) of every span named [name]. *)
let summary name =
  let child_ns = Hashtbl.create 64 in
  Util.Vec.iteri
    (fun _ sp ->
      if sp.parent >= 0 then
        let d = sp.stop_ns - sp.start_ns in
        Hashtbl.replace child_ns sp.parent
          (d + Option.value ~default:0 (Hashtbl.find_opt child_ns sp.parent)))
    spans;
  let total = ref 0 and self = ref 0 and count = ref 0 in
  Util.Vec.iteri
    (fun _ sp ->
      if String.equal sp.name name then begin
        let d = sp.stop_ns - sp.start_ns in
        incr count;
        total := !total + d;
        self := !self + d - Option.value ~default:0 (Hashtbl.find_opt child_ns sp.id)
      end)
    spans;
  (float_of_int !total /. 1e9, !count, float_of_int !self /. 1e9)

(* Mean span duration in ns; 0 when no such span was recorded. *)
let mean_ns name =
  let total, count, _ = summary name in
  if count = 0 then 0.0 else total *. 1e9 /. float_of_int count

(* One JSON object per line, times relative to the first span. *)
let write path =
  let oc = open_out path in
  let t0 = if Util.Vec.length spans = 0 then 0 else (Util.Vec.get spans 0).start_ns in
  Util.Vec.iteri
    (fun _ sp ->
      output_string oc
        (Util.json_to_string
           (Util.Obj
              [
                ("id", Util.Int sp.id);
                ("name", Util.Str sp.name);
                ("start_ns", Util.Int (sp.start_ns - t0));
                ("end_ns", Util.Int (sp.stop_ns - t0));
                ("parent", Util.Int sp.parent);
                ("qid", Util.Int sp.qid);
              ]));
      output_char oc '\n')
    spans;
  close_out oc
