(* Estimation serving: seeded session plans, the in-process request path
   (Protocol.parse_request -> Engine -> response encoder, one span per
   call), the socket client that drives a daemon, the daemon itself, and
   the offline references served sessions are checked against. *)

module Engine = Psm_serve.Engine
module Protocol = Psm_serve.Protocol
module Json = Psm_serve.Json
module Persist = Psm_flow.Persist
module Functional_trace = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace
module Vcd = Psm_trace.Vcd
module Hmm = Psm_hmm.Hmm
module Psm = Psm_core.Psm

let span name f = Span.with_ ~layer:"serve" name f

(* ---------- plans ---------- *)

let obs_per_frame = 32
let cycles_per_upload = 64
let checkpoint_every = 33 (* every 33rd frame of a session is a checkpoint *)

type mode = [ `Filter | `Sim ]

type session = { id : string; model : string; mode : mode; nprops : int }

(* One held-out capture cut into [cycles_per_upload]-cycle segments, each
   a standalone VCD (no power variable) split into two upload chunks. *)
type segments = { chunks : (string * string) array; traces : Functional_trace.t array }

let segments_of_vcd path =
  let parsed = Vcd.parse_file ~period:1 path in
  let trace = parsed.Vcd.trace in
  let n = Functional_trace.length trace / cycles_per_upload in
  let traces =
    Array.init n (fun i ->
        Functional_trace.sub trace ~start:(i * cycles_per_upload)
          ~stop:(((i + 1) * cycles_per_upload) - 1))
  in
  let chunks =
    Array.map
      (fun t ->
        let text = Vcd.to_string t in
        let half = String.length text / 2 in
        (String.sub text 0 half, String.sub text half (String.length text - half)))
      traces
  in
  { chunks; traces }

type plan = {
  seed : int;
  sessions : session array;
  segments : (string * segments) list;  (** per model, for sim sessions *)
  offsets : int array;  (** first segment of each sim session *)
}

(* [filter] filter sessions over every model and [sim] sim sessions over
   the models with held-out segments, alternating filter and sim. *)
let make_plan ~seed ~models ~segments ~filter ~sim =
  let nprops name =
    Psm_mining.Prop_trace.Table.prop_count (List.assoc name models).Persist.table
  in
  let pick names k = List.nth names (k mod List.length names) in
  let filters =
    List.init filter (fun k ->
        let model = pick (List.map fst models) k in
        { id = Printf.sprintf "f%03d" k; model; mode = `Filter; nprops = nprops model })
  and sims =
    List.init sim (fun k ->
        let model = pick (List.map fst segments) k in
        { id = Printf.sprintf "s%03d" k; model; mode = `Sim; nprops = nprops model })
  in
  let rec interleave a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | x :: a, y :: b -> x :: y :: interleave a b
  in
  let sessions = Array.of_list (interleave filters sims) in
  let offsets =
    Array.map
      (fun s ->
        match List.assoc_opt s.model segments with
        | Some seg when s.mode = `Sim ->
            Psm_stats.Prng.int
              (Inputs.rng seed ("serve/offset/" ^ s.id))
              (Array.length seg.chunks)
        | _ -> 0)
      sessions
  in
  { seed; sessions; segments; offsets }

(* Session [i] lives on connection [(i / 2) mod connections], so every
   connection carries both modes. *)
let connection_of i ~connections = i / 2 mod connections

let open_frame s =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "open");
         ("session", Json.Str s.id);
         ("model", Json.Str s.model);
         ("mode", Json.Str (Protocol.mode_to_string s.mode)) ])

(* The observations of filter frame [k] of session [s]: about one in
   eight propositions unknown, small input Hamming distances. *)
let observations plan s k =
  let rng = Inputs.rng plan.seed (Printf.sprintf "serve/obs/%s/%d" s.id k) in
  Array.init obs_per_frame (fun _ ->
      let p =
        if Psm_stats.Prng.int rng 8 = 0 then None
        else Some (Psm_stats.Prng.int rng s.nprops)
      in
      (p, float_of_int (Psm_stats.Prng.int rng 4)))

type frame_kind = Observe | Chunk | Upload | Checkpoint

(* Sim frame [k]'s upload number: each checkpoint cycle carries
   [(checkpoint_every - 1) / 2] two-chunk uploads. *)
let upload_index k =
  (k / checkpoint_every * ((checkpoint_every - 1) / 2)) + (k mod checkpoint_every / 2)

(* The [k]-th frame of session [i] after its open, and its kind. Sim
   sessions upload consecutive segments from their seeded offset. *)
let frame plan i k =
  let s = plan.sessions.(i) in
  let r = k mod checkpoint_every in
  if r = checkpoint_every - 1 then
    ( Checkpoint,
      Json.to_string
        (Json.Obj [ ("op", Json.Str "checkpoint"); ("session", Json.Str s.id) ]) )
  else
    match s.mode with
    | `Filter ->
        let obs = observations plan s k in
        ( Observe,
          Json.to_string
            (Json.Obj
               [ ("op", Json.Str "observe");
                 ("session", Json.Str s.id);
                 ( "props",
                   Json.List
                     (Array.to_list
                        (Array.map
                           (fun (p, _) ->
                             match p with
                             | Some p -> Json.Num (float_of_int p)
                             | None -> Json.Null)
                           obs)) );
                 ( "hd",
                   Json.List (Array.to_list (Array.map (fun (_, h) -> Json.Num h) obs)) ) ]) )
    | `Sim ->
        let seg = List.assoc s.model plan.segments in
        let first, second =
          seg.chunks.((plan.offsets.(i) + upload_index k) mod Array.length seg.chunks)
        in
        let last = r mod 2 = 1 in
        ( (if last then Upload else Chunk),
          Json.to_string
            (Json.Obj
               [ ("op", Json.Str "vcd");
                 ("session", Json.Str s.id);
                 ("chunk", Json.Str (if last then second else first));
                 ("last", Json.Bool last) ]) )

let cycles_of_kind = function
  | Observe -> obs_per_frame
  | Upload -> cycles_per_upload
  | Chunk | Checkpoint -> 0

(* ---------- the in-process request path ---------- *)

let num_int n = Json.Num (float_of_int n)

(* The response an [observe] or final [vcd] request earns once the engine
   has advanced the session: the same fields the daemon sends. *)
let deferred_response engine ~session ~cycles =
  match
    span "serve.take" (fun () ->
        match Engine.take_results engine ~id:session ~count:cycles with
        | Error e -> Error e
        | Ok results -> (
            match Engine.session_stats engine ~id:session with
            | Error e -> Error e
            | Ok st -> Ok (results, st)))
  with
  | Error e -> span "serve.encode" (fun () -> Protocol.error ~session e)
  | Ok (results, st) ->
      span "serve.encode" (fun () ->
          Protocol.ok
            [ ("session", Json.Str session);
              ("cycles", num_int (Array.length results));
              ( "power",
                Json.List (Array.to_list (Array.map (fun (p, _) -> Json.Num p) results)) );
              ( "states",
                Json.List (Array.to_list (Array.map (fun (_, s) -> num_int s) results)) );
              ("wsp", Json.Num st.Engine.wsp);
              ("wrong_instants", num_int st.Engine.wrong_instants);
              ("resync_events", num_int st.Engine.resync_events);
              ("log_lik", Json.Num st.Engine.log_likelihood) ])

(* One request line in, one response line out. Stream requests drain the
   engine before answering, as a daemon wave with a single contributor
   does. *)
let handle engine ?(job = 0) line =
  Span.with_ ~layer:"serve" ~job "serve.request" @@ fun () ->
  let error ?session e = span "serve.encode" (fun () -> Protocol.error ?session e) in
  let ok fields = span "serve.encode" (fun () -> Protocol.ok fields) in
  let stream session = function
    | Ok cycles ->
        ignore (span "serve.drain" (fun () -> Engine.drain engine));
        deferred_response engine ~session ~cycles
    | Error e -> error ~session e
  in
  match span "serve.parse" (fun () -> Protocol.parse_request line) with
  | Error e -> error e
  | Ok (Protocol.Open { session; model; mode }) -> (
      match
        span "serve.open" (fun () -> Engine.open_session engine ~id:session ~model ~mode)
      with
      | Ok () ->
          ok
            [ ("session", Json.Str session);
              ("mode", Json.Str (Protocol.mode_to_string mode)) ]
      | Error e -> error ~session e)
  | Ok (Protocol.Observe { session; obs }) ->
      stream session (span "serve.submit" (fun () -> Engine.submit engine ~id:session obs))
  | Ok (Protocol.Vcd { session; chunk; last }) -> (
      match
        span "serve.vcd_chunk" (fun () -> Engine.vcd_chunk engine ~id:session ~chunk ~last)
      with
      | Ok _ when not last -> ok [ ("session", Json.Str session); ("buffered", Json.Bool true) ]
      | result -> stream session result)
  | Ok (Protocol.Checkpoint { session }) -> (
      match
        span "serve.checkpoint" (fun () ->
            Result.map Protocol.hex_encode (Engine.checkpoint engine ~id:session))
      with
      | Ok data -> ok [ ("session", Json.Str session); ("checkpoint", Json.Str data) ]
      | Error e -> error ~session e)
  | Ok (Protocol.Hello | Protocol.Stats | Protocol.Shutdown | Protocol.Restore _ | Protocol.Close _)
    ->
      error "not part of a benchmark schedule"

(* A schedule is the frame sequence one run sent: (session index, frame
   number), with frame number -1 for the session's open. Its frames are
   built up front, so replaying them times the server side only. *)
let frames plan schedule =
  Array.map
    (fun (i, k) ->
      if k < 0 then (None, open_frame plan.sessions.(i))
      else
        let kind, line = frame plan i k in
        (Some kind, line))
    schedule

(* Run [frames] through a fresh engine over [models]; responses come back
   in order. [on_request] sees each non-open request's kind and
   latency. *)
let run_in_process ?(on_request = fun _ _ -> ()) ~models frames =
  let engine = span "serve.create" (fun () -> Engine.create ~idle_timeout:0. models) in
  let responses =
    Array.mapi
      (fun job (kind, line) ->
        let t0 = Measure.now () in
        let response = handle engine ~job line in
        Option.iter (fun kind -> on_request kind (Measure.now () -. t0)) kind;
        response)
      frames
  in
  (responses, Engine.stats engine)

(* Round-robin over every session: all opens, then [rounds] frames per
   session. *)
let round_robin plan ~rounds =
  let n = Array.length plan.sessions in
  Array.append
    (Array.init n (fun i -> (i, -1)))
    (Array.init (n * rounds) (fun j -> (j mod n, j / n)))

(* ---------- response checks ---------- *)

let parse_response line =
  match Json.of_string line with Ok (Json.Obj fields) -> fields | _ -> []

let response_ok line =
  match List.assoc_opt "ok" (parse_response line) with
  | Some (Json.Bool b) -> b
  | _ -> false

(* Every field the in-process path produced must be in the daemon's
   response with an equal value (the daemon may add fields). *)
let same_response ~replayed ~served =
  let served = parse_response served in
  let replayed = parse_response replayed in
  replayed <> []
  && List.for_all
       (fun (k, v) -> match List.assoc_opt k served with Some w -> v = w | None -> false)
       replayed

(* (power, state) pairs of an estimate response. *)
let estimates line =
  let fields = parse_response line in
  match (List.assoc_opt "power" fields, List.assoc_opt "states" fields) with
  | Some (Json.List ps), Some (Json.List ss) when List.length ps = List.length ss ->
      List.map2
        (fun p s ->
          ( Option.value ~default:nan (Json.to_float p),
            Option.value ~default:(-2) (Json.to_int s) ))
        ps ss
  | _ -> []

(* The estimates session [i] must have received over its frames
   [0 .. frames-1], computed offline: forward filtering over the whole
   observation sequence (filter sessions) or a fresh Multi_sim stepper fed
   each upload's classified samples (sim sessions). *)
let offline_expected plan ~models i ~frames =
  let s = plan.sessions.(i) in
  let model : Persist.model = List.assoc s.model models in
  let hmm = model.Persist.hmm in
  match s.mode with
  | `Filter ->
      let obs =
        List.concat
          (List.init frames (fun k ->
               if k mod checkpoint_every = checkpoint_every - 1 then []
               else Array.to_list (observations plan s k)))
        |> Array.of_list
      in
      if obs = [||] then []
      else begin
        let filt = Psm_hmm.Filtering.create hmm in
        let props = Array.map fst obs in
        let rows = Psm_hmm.Filtering.map_states filt props in
        let posts = Psm_hmm.Filtering.posteriors filt props in
        let outputs =
          Array.init (Array.length posts.(0)) (fun row ->
              (Psm.state model.Persist.psm (Hmm.state_of_row hmm row)).Psm.output)
        in
        List.init (Array.length obs) (fun t ->
            let acc = ref 0. in
            Array.iteri
              (fun row p ->
                if p > 0. then
                  acc := !acc +. (p *. Psm.eval_output outputs.(row) ~hamming:(snd obs.(t))))
              posts.(t);
            (!acc, Hmm.state_of_row hmm rows.(t)))
      end
  | `Sim ->
      let seg = List.assoc s.model plan.segments in
      let stepper = Psm_hmm.Multi_sim.Stepper.create (Hmm.copy hmm) in
      List.concat
        (List.init frames (fun k ->
             match frame plan i k with
             | Upload, _ ->
                 let trace =
                   seg.traces.((plan.offsets.(i) + upload_index k) mod Array.length seg.traces)
                 in
                 let hd = Functional_trace.input_hamming_series trace in
                 List.init (Functional_trace.length trace) (fun time ->
                     let o =
                       Psm_hmm.Multi_sim.Stepper.classify stepper
                         (Functional_trace.sample trace ~time)
                     in
                     Psm_hmm.Multi_sim.Stepper.step_classified stepper ~hamming:hd.(time) o)
             | _ -> []))

(* ---------- the daemon ---------- *)

(* The body of the [daemon] subcommand: load the persisted models, serve
   them on a Unix socket until a shutdown request, then write the peak
   live major heap seen while serving to [stats]. *)
let daemon ~socket ~models ~stats ~jobs =
  Psm_par.set_jobs jobs;
  let models = List.map (fun (name, path) -> (name, Persist.load_file path)) models in
  let server = Psm_serve.Server.create ~idle_timeout:0. ~listen:(`Unix socket) models in
  let (), peak = Measure.with_peak_live (fun () -> Psm_serve.Server.run server) in
  let s = Engine.stats (Psm_serve.Server.engine server) in
  Inputs.write_file stats
    (Json.to_string
       (Json.Obj
          [ ("peak_live_words", num_int peak);
            ("cycles_served", num_int s.Engine.cycles_served);
            ("ticks", num_int s.Engine.ticks);
            ("sweeps", num_int s.Engine.sweeps) ]))

(* ---------- the socket client ---------- *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable pending : (float * frame_kind * int) option;  (** send time, kind, log slot *)
  owned : int array;  (** indices of the sessions on this connection *)
  mutable cursor : int;
}

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let send fd line =
  let s = line ^ "\n" in
  write_all fd s 0 (String.length s)

let buf = Bytes.create 65536

(* Read whatever is available and return the complete lines. *)
let read_lines conn =
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | 0 -> failwith "daemon closed the connection"
  | n ->
      Buffer.add_subbytes conn.inbuf buf 0 n;
      let s = Buffer.contents conn.inbuf in
      Buffer.clear conn.inbuf;
      let rec split start acc =
        match String.index_from_opt s start '\n' with
        | Some nl -> split (nl + 1) (String.sub s start (nl - start) :: acc)
        | None ->
            Buffer.add_substring conn.inbuf s start (String.length s - start);
            List.rev acc
      in
      split 0 []

(* Blocking request/response on an idle connection. *)
let rec request conn line =
  send conn.fd line;
  wait_line conn

and wait_line conn =
  match read_lines conn with
  | [ one ] -> one
  | [] -> wait_line conn
  | _ -> failwith "more than one response to one request"

type served = {
  schedule : (int * int) array;  (** in send order *)
  responses : string array;  (** aligned with [schedule] *)
  filter_ms : float array;
  sim_ms : float array;
  cycles : int;  (** session-cycles answered *)
  seconds : float;  (** the closed loop's wall-clock *)
  slices : float list;
      (** session-cycles per reference second in each one-second slice of
          the loop *)
}

(* How often the closed loop pauses, with nothing outstanding, to sample
   the host's speed; latencies and slice rates are scaled by the slowdown
   around them (see [Calib]). *)
let calib_every = 0.1

(* Open every session, then run a closed loop for [seconds]: each
   connection has one request outstanding and round-robins over its
   sessions. *)
let drive ~socket ~connections ~seconds (plan : plan) =
  let nsess = Array.length plan.sessions in
  let conns =
    Array.init connections (fun c ->
        { fd = connect socket;
          inbuf = Buffer.create 4096;
          pending = None;
          owned =
            Array.of_list
              (List.filter
                 (fun i -> connection_of i ~connections = c)
                 (List.init nsess Fun.id));
          cursor = 0 })
  in
  let log = ref [] and responses = ref [] in
  Array.iteri
    (fun i _ ->
      let conn = conns.(connection_of i ~connections) in
      log := (i, -1) :: !log;
      responses := request conn (open_frame plan.sessions.(i)) :: !responses)
    plan.sessions;
  let next_k = Array.make nsess 0 in
  let filter = ref [] and sim = ref [] and cycles = ref 0 and answered = ref [] in
  let slots = ref (List.length !log) in
  let pending_responses = Hashtbl.create 64 in
  Calib.sample ();
  let t0 = Measure.now () in
  let deadline = t0 +. seconds in
  let next_calib = ref (t0 +. calib_every) in
  let issue conn =
    let i = conn.owned.(conn.cursor mod Array.length conn.owned) in
    conn.cursor <- conn.cursor + 1;
    let k = next_k.(i) in
    next_k.(i) <- k + 1;
    let kind, line = frame plan i k in
    log := (i, k) :: !log;
    let slot = !slots in
    incr slots;
    conn.pending <- Some (Measure.now (), kind, slot);
    send conn.fd line
  in
  let rec loop () =
    let now = Measure.now () in
    let idle = Array.for_all (fun c -> c.pending = None) conns in
    if now >= !next_calib && idle then begin
      Calib.sample ();
      next_calib := now +. calib_every
    end;
    if now < deadline && now < !next_calib then
      Array.iter (fun c -> if c.pending = None then issue c) conns;
    let waiting =
      Array.to_list conns |> List.filter (fun c -> c.pending <> None)
    in
    if waiting <> [] then begin
      let ready, _, _ =
        try Unix.select (List.map (fun c -> c.fd) waiting) [] [] 5.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if List.mem c.fd ready then
            match (read_lines c, c.pending) with
            | [], _ -> ()
            | [ line ], Some (sent, kind, slot) ->
                let ms = (Measure.now () -. sent) *. 1e3 in
                (match kind with
                | Observe -> filter := (sent, ms) :: !filter
                | Upload -> sim := (sent, ms) :: !sim
                | Chunk | Checkpoint -> ());
                cycles := !cycles + cycles_of_kind kind;
                answered := (Measure.now (), cycles_of_kind kind) :: !answered;
                Hashtbl.replace pending_responses slot line;
                c.pending <- None
            | _ -> failwith "unexpected response")
        waiting;
      loop ()
    end
  in
  loop ();
  let elapsed = Measure.now () -. t0 in
  Calib.sample ();
  let scaled samples =
    Array.of_list
      (List.rev_map (fun (t, ms) -> ms /. Calib.slowdown ~t0:t ~t1:t) samples)
  in
  let opened = List.rev !responses in
  let schedule = Array.of_list (List.rev !log) in
  let nopen = List.length opened in
  let responses =
    Array.mapi
      (fun slot _ ->
        if slot < nopen then List.nth opened slot
        else Hashtbl.find pending_responses slot)
      schedule
  in
  ignore (request conns.(0) {|{"op":"shutdown"}|});
  Array.iter (fun c -> Unix.close c.fd) conns;
  { schedule;
    responses;
    filter_ms = scaled !filter;
    sim_ms = scaled !sim;
    cycles = !cycles;
    seconds = elapsed;
    slices =
      (let n = max 1 (int_of_float elapsed) in
       let per = Array.make n 0 in
       List.iter
         (fun (t, c) ->
           let i = int_of_float (float_of_int n *. (t -. t0) /. elapsed) in
           if i >= 0 && i < n then per.(i) <- per.(i) + c)
         !answered;
       let width = elapsed /. float_of_int n in
       Array.to_list
         (Array.mapi
            (fun i c ->
              let lo = t0 +. (float_of_int i *. width) in
              float_of_int c /. width *. Calib.slowdown ~t0:lo ~t1:(lo +. width))
            per)) }
