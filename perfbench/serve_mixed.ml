(* serve-mixed: the daemon as co-simulation clients use it. Set-up trains
   the four IP models and the 100+-state stress model, round-trips them
   through Persist and starts a daemon (this executable's [daemon]
   subcommand) on a Unix socket. The timed part is a closed loop of one
   client process with [nproc] connections, one request outstanding per
   connection, each round-robining over its sessions: filter sessions
   send [observe] frames, sim sessions upload held-out captures as [vcd]
   chunks, and every 33rd frame of a session is a [checkpoint]. Protocol,
   JSON and the engine carry the cost; nothing is trained while serving.
   Afterwards the served models are retrained from the set-up's VCD files
   and the [psmgen apply] path runs over the same held-out captures. *)

module Flow = Psm_flow.Flow
module Json = Psm_serve.Json

let name = "serve-mixed"

(* A quarter of the paper's short-TS lengths per IP model. *)
let scale = 0.25
let parts = 2
let heldout_cycles = 8192
let filter_sessions = 32
let sim_sessions = 32

(* End-to-end runs replay this many of the daemon's frames in process
   (the traced run replays all of them). *)
let replay_limit = 3000

(* Share of the run spent serving; the rest retrains the served models
   and runs the apply path. *)
let serve_share = 0.6

type daemon = { pid : int; socket : string; stats : string }

type inputs = {
  training : (string * string list) list;  (** model name, its VCD files *)
  heldout : (string * string) list;  (** IP name, its held-out capture *)
  model_paths : (string * string) list;
  train_cycles : int list;  (** per model, aligned with [training] *)
  errors : int;
  segments : (string * Serving.segments) list;
  daemon : daemon;
}

let stress_name = "Stress"

(* ---------- the daemon process ---------- *)

let daemons : daemon list ref = ref []

let reap d =
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> -1

(* No daemon outlives the benchmark, whatever path it exits by. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap d))
        !daemons)

let forget d = daemons := List.filter (fun x -> x.pid <> d.pid) !daemons

let spawn (opts : Common.options) ~tag models =
  let socket = Filename.concat opts.Common.work (Printf.sprintf "d%d.sock" tag) in
  let stats = Filename.concat opts.Common.work (Printf.sprintf "daemon-%d.json" tag) in
  (try Sys.remove stats with Sys_error _ -> ());
  let args =
    [ Sys.executable_name; "daemon"; "--socket"; socket; "--stats"; stats; "--jobs";
      string_of_int (max 1 (opts.Common.nproc - 1)) ]
    @ List.concat_map (fun (n, p) -> [ "--model"; n ^ "=" ^ p ]) models
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stderr
      Unix.stderr
  in
  let d = { pid; socket; stats } in
  daemons := d :: !daemons;
  (* Ready once it accepts a connection and answers hello. *)
  let deadline = Measure.now () +. 60. in
  let rec connect () =
    match Serving.connect socket with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if Measure.now () > deadline then failwith "daemon did not start";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "daemon exited during start-up");
        Unix.sleepf 0.005;
        connect ()
  in
  let fd = connect () in
  let conn =
    { Serving.fd; inbuf = Buffer.create 256; pending = None; owned = [||]; cursor = 0 }
  in
  let hello = Serving.request conn {|{"op":"hello"}|} in
  Unix.close fd;
  if not (Serving.response_ok hello) then failwith ("daemon hello: " ^ hello);
  d

(* Ask a daemon to stop (it answers shutdown, then exits) and reap it. *)
let stop d =
  let fd = Serving.connect d.socket in
  let conn =
    { Serving.fd; inbuf = Buffer.create 256; pending = None; owned = [||]; cursor = 0 }
  in
  ignore (Serving.request conn {|{"op":"shutdown"}|});
  Unix.close fd;
  let code = reap d in
  forget d;
  code

(* ---------- set-up ---------- *)

let batch files = fst (Flow.train_on_vcd_files ~period:1 files)

let train_all training ~train =
  List.map (fun (n, files) -> (n, train files)) training

let setup_count = ref 0

let setup (opts : Common.options) =
  let dir = opts.Common.work and seed = opts.Common.seed in
  let ips =
    List.map
      (fun (spec : Inputs.ip_spec) ->
        let files, cycles = Inputs.write_training_suite ~dir ~seed ~scale ~parts spec in
        let heldout, _ = Inputs.write_heldout ~dir ~seed ~length:heldout_cycles spec in
        (spec.Inputs.name, files, cycles, heldout))
      Inputs.paper_ips
  in
  let stress = Filename.concat dir "stress.vcd" in
  let stress_cycles = Inputs.write_stress stress in
  let training =
    List.map (fun (n, files, _, _) -> (n, files)) ips @ [ (stress_name, [ stress ]) ]
  in
  let trained = train_all training ~train:batch in
  let model_paths =
    List.map
      (fun (n, t) ->
        let path = Filename.concat dir (n ^ ".psm") in
        ignore (Pipeline.save_file path t);
        (n, path))
      trained
  in
  incr setup_count;
  { training;
    heldout = List.map (fun (n, _, _, h) -> (n, h)) ips;
    model_paths;
    train_cycles = List.map (fun (_, _, c, _) -> c) ips @ [ stress_cycles ];
    errors =
      List.fold_left
        (fun acc (_, t) -> acc + Pipeline.error_findings t.Flow.analysis)
        0 trained;
    segments = List.map (fun (n, _, _, h) -> (n, Serving.segments_of_vcd h)) ips;
    daemon = spawn opts ~tag:!setup_count model_paths }

let teardown inputs = ignore (stop inputs.daemon)

let load_models inputs =
  List.map (fun (n, p) -> (n, Pipeline.load_file p)) inputs.model_paths

let plan_of (opts : Common.options) inputs models =
  Serving.make_plan ~seed:opts.Common.seed ~models ~segments:inputs.segments
    ~filter:filter_sessions ~sim:sim_sessions

(* ---------- the timed part ---------- *)

(* The closed loop against the daemon, with this process single-threaded
   (the daemon runs [nproc - 1] jobs, so together they use [nproc]
   threads); then stop the daemon and read its peak heap. *)
let serve (opts : Common.options) inputs plan ~seconds =
  let served =
    Serving.drive ~socket:inputs.daemon.socket ~connections:opts.Common.nproc ~seconds plan
  in
  let code = reap inputs.daemon in
  forget inputs.daemon;
  Measure.check (name ^ ": daemon exits cleanly") (code = 0);
  let peak =
    match Json.of_string (Inputs.read_file inputs.daemon.stats) with
    | Ok stats ->
        Option.value ~default:0 (Option.bind (Json.member "peak_live_words" stats) Json.to_int)
    | Error _ -> 0
  in
  Measure.check (name ^ ": daemon reports its peak heap") (peak > 0);
  (served, peak)

let apply_all inputs =
  Common.timed_parts
    (fun (n, h) -> Pipeline.apply ~model_path:(List.assoc n inputs.model_paths) h)
    inputs.heldout

(* ---------- checks ---------- *)

let check_served plan ~models (served : Serving.served) ~replayed =
  Phases.check_all_ok name served.Serving.responses;
  Phases.check_same_responses name plan ~schedule:served.Serving.schedule ~replayed
    ~served:served.Serving.responses;
  Phases.check_offline name plan ~models ~schedule:served.Serving.schedule
    ~responses:served.Serving.responses (Phases.sample plan 8)

(* The in-process replay of the first [limit] frames the daemon was
   sent (all of them by default). *)
let replay opts ?limit plan ~models (served : Serving.served) =
  let schedule = served.Serving.schedule in
  let n = Option.value ~default:(Array.length schedule) limit in
  let frames = Serving.frames plan (Array.sub schedule 0 (min n (Array.length schedule))) in
  Common.with_jobs (Common.serve_jobs opts) (fun () ->
      fst (Serving.run_in_process ~models frames))

(* One repetition after serving: retrain the served models from the
   set-up's VCD files, persist them, and apply the IP models to their
   held-out captures. *)
let retrain_and_apply inputs =
  Measure.quiesce ();
  let trained = Common.timed_parts (fun (_, files) -> batch files) inputs.training in
  let models =
    List.map2
      (fun (n, _) (t, _) -> Pipeline.save_file (List.assoc n inputs.model_paths) t)
      inputs.training trained
  in
  Measure.quiesce ();
  let applied = apply_all inputs in
  ( models,
    List.map2 (fun c (_, s) -> (c, s)) inputs.train_cycles trained,
    applied,
    Phases.apply_parts applied )

let end_to_end (opts : Common.options) =
  let inputs, setups = Common.repeat_setup ~teardown (fun () -> setup opts) in
  let setup_models = List.map (fun (_, p) -> Inputs.read_file p) inputs.model_paths in
  let models = load_models inputs in
  let plan = plan_of opts inputs models in
  let served, peak = serve opts inputs plan ~seconds:(serve_share *. opts.Common.seconds) in
  let reps =
    Common.repeat_timed ~seconds:((1. -. serve_share) *. opts.Common.seconds) (fun _ ->
        retrain_and_apply inputs)
  in
  List.iter
    (fun (saved, _, _, _) ->
      Measure.check (name ^ ": retrained models = set-up models") (saved = setup_models))
    reps;
  let _, _, applied, _ = List.hd reps in
  let mre_pct, wrong_instants, _ = Phases.accuracy applied in
  let train_cycles, _ = Phases.total (let _, t, _, _ = List.hd reps in t) in
  let apply_cycles, _ = Phases.total (Phases.apply_parts applied) in
  Measure.check (name ^ ": no error findings") (inputs.errors = 0);
  check_served plan ~models served ~replayed:(replay opts ~limit:replay_limit plan ~models served);
  let filter = Common.latency served.Serving.filter_ms
  and sim = Common.latency served.Serving.sim_ms in
  let e =
    { Common.setup_s = Measure.median setups;
      train_cycles_per_s = Common.parts_rate (List.map (fun (_, t, _, _) -> t) reps);
      apply_cycles_per_s = Common.parts_rate (List.map (fun (_, _, _, a) -> a) reps);
      mre_pct;
      peak_heap_mb = Measure.words_to_mib peak;
      (* Median over one-second slices of the loop. *)
      serve_cycles_per_s = Measure.median served.Serving.slices;
      filter;
      sim }
  in
  let num n = Json.Num (float_of_int n) in
  Common.finish opts ~metrics:(Common.end_to_end_metrics e)
    ~detail:
      [ ( "shape",
          Json.Obj
            [ ("train_cycles", num train_cycles);
              ("heldout_cycles", num apply_cycles);
              ("models", num (List.length models));
              ("sessions", num (Array.length plan.Serving.sessions));
              ("frames", num (Array.length served.Serving.schedule));
              ("connections", num opts.Common.nproc) ] );
        ("setup_s", Json.List (List.map (fun s -> Json.Num s) setups));
        ("serve_s", Json.Num served.Serving.seconds);
        ("reps", num (List.length reps));
        ("train_s", Json.List (List.map (fun (_, t, _, _) -> Json.Num (snd (Phases.total t))) reps));
        ("apply_s", Json.List (List.map (fun (_, _, _, a) -> Json.Num (snd (Phases.total a))) reps));
        ("wsp_pct", Json.Num (100. *. float_of_int wrong_instants /. float_of_int apply_cycles));
        ("filter_latency", Common.latency_json filter);
        ("sim_latency", Common.latency_json sim) ]

(* Train, persist, apply and replay the daemon's schedule: once with the
   end-to-end calls and tracing off, once layer by layer and traced. *)
let pass opts inputs frames ~train =
  let timed = Common.timed_parts (fun (_, files) -> train files) inputs.training in
  let trained = List.map2 (fun (n, _) (t, _) -> (n, t)) inputs.training timed in
  let models =
    List.map (fun (n, t) -> Pipeline.save_file (List.assoc n inputs.model_paths) t) trained
  in
  let applied = apply_all inputs in
  let loaded = load_models inputs in
  let (responses, stats), seconds =
    Common.with_jobs (Common.serve_jobs opts) (fun () ->
        Measure.timed (fun () -> Serving.run_in_process ~models:loaded frames))
  in
  let mre_pct, wrong_instants, resync_events = Phases.accuracy applied in
  let sum f = List.fold_left (fun acc (_, t) -> acc + f t) 0 trained in
  ( { Phases.train = List.map2 (fun c (_, s) -> (c, s)) inputs.train_cycles timed;
      apply = Phases.apply_parts applied;
      models;
      errors = sum (fun t -> Pipeline.error_findings t.Flow.analysis);
      props = sum (fun t -> Psm_mining.Prop_trace.Table.prop_count t.Flow.table);
      raw_states = sum (fun t -> Psm_core.Psm.state_count t.Flow.raw);
      final_states = sum (fun t -> Psm_core.Psm.state_count t.Flow.optimized);
      mre_pct;
      wrong_instants;
      resync_events;
      serve =
        { Phases.responses;
          stats;
          filter_ms = [];
          sim_ms = [];
          cycles = stats.Psm_serve.Engine.cycles_served;
          seconds } },
    trained )

let traced (opts : Common.options) =
  let inputs = setup opts in
  let models = load_models inputs in
  let plan = plan_of opts inputs models in
  (* Half the end-to-end serving window: the schedule is replayed three
     times below. *)
  let served, _ = serve opts inputs plan ~seconds:(serve_share *. opts.Common.seconds /. 2.) in
  let frames = Serving.frames plan served.Serving.schedule in
  let layered files = Pipeline.train_layered (Pipeline.ingest files) in
  let (untraced, _), (((r, trained), common_s, streamed), spans, window), untraced_s =
    Common.bracket
      ~untraced:(fun () -> pass opts inputs frames ~train:batch)
      ~traced:(fun () ->
        Phases.with_tracing (fun () ->
            let result, common_s =
              Measure.timed (fun () -> pass opts inputs frames ~train:layered)
            in
            let streamed = Pipeline.stream_layered (List.assoc stress_name inputs.training) in
            List.iter (fun (_, h) -> Pipeline.stream_noop h) inputs.heldout;
            (result, common_s, streamed)))
  in
  Span.write_chrome (Filename.concat opts.Common.work "spans.json") spans;
  let responses = r.Phases.serve.Phases.responses in
  Measure.check (name ^ ": traced models = untraced models") (r.Phases.models = untraced.Phases.models);
  Measure.check (name ^ ": traced replay = untraced replay")
    (responses = untraced.Phases.serve.Phases.responses);
  Measure.check (name ^ ": no error findings") (r.Phases.errors = 0);
  check_served plan ~models served ~replayed:responses;
  Measure.check (name ^ ": streamed stress model = batch")
    (Pipeline.stream_equals_batch (List.assoc stress_name trained) streamed);
  let t =
    { Common.spans;
      window;
      common_s;
      untraced_s;
      counts =
        Phases.traced_counts r
          ~extra:[ ("flow.compactions", float_of_int streamed.Psm_flow.Stream_train.compactions) ] }
  in
  Common.finish opts ~metrics:(Common.per_layer_metrics t) ~detail:(Phases.traced_detail t r)
