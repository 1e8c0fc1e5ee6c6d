(* In-memory span recorder for the traced run.

   The benchmark wraps every public call it makes into a library layer in
   [with_]; a span records its name, layer, start, end, parent span, a
   job/request id, the recording domain and the words that domain
   allocated inside it. Spans are kept in memory while the workload runs
   and written out once at the end ([write_chrome]). With recording off
   (the default, and every end-to-end run) [with_] is [f ()] behind one
   atomic load. *)

type t = {
  id : int;
  parent : int;  (** 0 = no parent span *)
  layer : string;
  name : string;
  job : int;
  domain : int;
  start : float;
  stop : float;
  alloc_words : float;
      (** Words allocated by the recording domain while the span was open
          (minor + direct major - promoted, from [Gc.counters]). *)
}

let enabled = Atomic.make false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1

(* The open spans of the current domain, innermost first: (id, job). *)
let stack : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let current () =
  match Domain.DLS.get stack with (id, _) :: _ -> id | [] -> 0

let current_job () =
  match Domain.DLS.get stack with (_, job) :: _ -> job | [] -> 0

(* [parent] overrides the innermost open span of this domain — needed for
   spans opened inside Psm_par worker tasks, whose domain has no open
   span of its own. [job] defaults to the enclosing span's. *)
let with_ ?parent ?job ~layer name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let outer = Domain.DLS.get stack in
    let parent = match parent with Some p -> p | None -> current () in
    let job = match job with Some j -> j | None -> current_job () in
    let id = Atomic.fetch_and_add next_id 1 in
    Domain.DLS.set stack ((id, job) :: outer);
    let a0 = allocated () in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let a1 = allocated () in
        Domain.DLS.set stack outer;
        let span =
          { id; parent; layer; name; job;
            domain = (Domain.self () :> int);
            start = t0; stop = t1; alloc_words = a1 -. a0 }
        in
        Mutex.protect lock (fun () -> recorded := span :: !recorded))
      f
  end

let start_recording () =
  Mutex.protect lock (fun () -> recorded := []);
  Atomic.set enabled true

let stop_recording () =
  Atomic.set enabled false;
  Mutex.protect lock (fun () -> List.rev !recorded)

(* ---------- derived accounting ---------- *)

let duration s = s.stop -. s.start

(* Total length of the union of [intervals], clipped to [lo, hi]. *)
let union_length ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None sorted

type summary = {
  calls : int;
  total_s : float;  (** Sum of span durations. *)
  self_s : float;  (** Sum of durations minus time covered by child spans. *)
  self_alloc_words : float;
      (** Allocated words minus those of same-domain children. *)
}

let empty = { calls = 0; total_s = 0.; self_s = 0.; self_alloc_words = 0. }

(* Per-span self time and self allocation. *)
let self_costs spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let covered =
        union_length ~lo:s.start ~hi:s.stop
          (List.map (fun k -> (k.start, k.stop)) kids)
      in
      let kid_alloc =
        List.fold_left
          (fun acc k -> if k.domain = s.domain then acc +. k.alloc_words else acc)
          0. kids
      in
      (s, duration s -. covered, s.alloc_words -. kid_alloc))
    spans

let summarize key spans =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (s, self, self_alloc) ->
      let k = key s in
      let acc = Option.value ~default:empty (Hashtbl.find_opt table k) in
      Hashtbl.replace table k
        { calls = acc.calls + 1;
          total_s = acc.total_s +. duration s;
          self_s = acc.self_s +. self;
          self_alloc_words = acc.self_alloc_words +. self_alloc })
    (self_costs spans);
  table

let by_name spans = summarize (fun s -> s.name) spans
let by_layer spans = summarize (fun s -> s.layer) spans

let find table key = Option.value ~default:empty (Hashtbl.find_opt table key)

(* Share of [lo, hi] covered by at least one span. *)
let coverage ~lo ~hi spans =
  if hi <= lo then 0.
  else union_length ~lo ~hi (List.map (fun s -> (s.start, s.stop)) spans) /. (hi -. lo)

(* Chrome trace-event JSON (loadable in Perfetto / chrome://tracing): one
   complete ("X") event per span, timestamps in microseconds relative to
   the first span, the span id, parent, job and allocation in [args]. *)
let write_chrome path spans =
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%d,\"alloc_words\":%.0f}}"
            s.name s.layer s.domain
            ((s.start -. origin) *. 1e6)
            (duration s *. 1e6) s.id s.parent s.job s.alloc_words)
        spans;
      output_string oc "\n]}\n")
