(* The benchmark executable.

     main.exe run --workload W --seed N --seconds S --trace 0|1 --nproc N
     main.exe daemon --socket PATH --stats FILE --jobs N --model NAME=FILE...

   [run] executes one workload and prints, as its last line, the result
   object; [daemon] is the serve-mixed daemon process. Scratch files go
   under perfbench/_work/<workload>, relative to the working directory
   (the checkout root). *)

let workloads =
  [ (Train_paper.name, (Train_paper.end_to_end, Train_paper.traced));
    (Dwell_stream.name, (Dwell_stream.end_to_end, Dwell_stream.traced));
    (Serve_mixed.name, (Serve_mixed.end_to_end, Serve_mixed.traced)) ]

let usage () =
  prerr_endline
    "usage: main.exe run --workload (train-paper|train-dwell-stream|serve-mixed) \
     --seed N --seconds S --trace 0|1 [--nproc N]\n\
    \       main.exe daemon --socket PATH --stats FILE --jobs N --model NAME=FILE...";
  exit 2

(* "--key value" pairs; repeated keys keep every value, in order. *)
let rec pairs = function
  | [] -> []
  | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      (String.sub key 2 (String.length key - 2), value) :: pairs rest
  | _ -> usage ()

let get args key = match List.assoc_opt key args with Some v -> v | None -> usage ()

let int_arg args key =
  match int_of_string_opt (get args key) with Some n -> n | None -> usage ()

let run args =
  let workload = get args "workload" in
  let end_to_end, traced =
    match List.assoc_opt workload workloads with Some w -> w | None -> usage ()
  in
  let work = Filename.concat (Filename.concat "perfbench" "_work") workload in
  Inputs.mkdir_p work;
  let opts =
    { Common.workload;
      seed = int_arg args "seed";
      seconds = float_of_int (int_arg args "seconds");
      trace = int_arg args "trace" = 1;
      nproc =
        (match List.assoc_opt "nproc" args with
        | Some n -> Option.value ~default:1 (int_of_string_opt n)
        | None -> Psm_par.recommended_domains ());
      work }
  in
  Psm_par.set_jobs Common.jobs;
  if opts.Common.trace then begin
    Measure.quiescing := false;
    Calib.enabled := false;
    traced opts
  end
  else end_to_end opts

let daemon args =
  let models =
    List.filter_map
      (fun (k, v) ->
        if k <> "model" then None
        else
          match String.index_opt v '=' with
          | Some i -> Some (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1))
          | None -> usage ())
      args
  in
  Serving.daemon ~socket:(get args "socket") ~models ~stats:(get args "stats")
    ~jobs:(int_arg args "jobs")

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run (pairs rest)
  | _ :: "daemon" :: rest -> daemon (pairs rest)
  | _ -> usage ()
