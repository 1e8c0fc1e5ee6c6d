let seconds s = Printf.sprintf "%.2f" s
let percent f = Printf.sprintf "%.2f%%" (100. *. f)

let render_table ~header rows =
  let all = header :: rows in
  let columns = List.length header in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init columns width in
  let render_row row =
    row
    |> List.mapi (fun c cell ->
           let w = List.nth widths c in
           if c = 0 then Printf.sprintf "%-*s" w cell else Printf.sprintf "%*s" w cell)
    |> String.concat "  "
  in
  let separator =
    widths |> List.map (fun w -> String.make w '-') |> String.concat "  "
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf separator;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let opt_int = function Some n -> string_of_int n | None -> "n/a"
let opt_seconds = function Some s -> seconds s | None -> "n/a"

let table1 rows =
  render_table
    ~header:
      [ "IP"; "Lines"; "PIs"; "POs"; "Elab. time (s)"; "Gates"; "Depth";
        "Memory elements" ]
    (List.map
       (fun (r : Experiment.table1_row) ->
         [ r.t1_name; opt_int r.lines; string_of_int r.pi_bits;
           string_of_int r.po_bits; opt_seconds r.elaboration_s; opt_int r.gates;
           opt_int r.logic_depth; string_of_int r.memory_elements ])
       rows)

let table2_cells (r : Experiment.table2_row) =
  [ r.t2_name; string_of_int r.ts; seconds r.px_s; seconds r.capture_s;
    seconds r.gen_s; seconds r.analyze_s; string_of_int r.states; string_of_int r.transitions;
    percent r.mre ]

let table2 rows =
  let header =
    [ "IP"; "TS"; "PX (s)"; "Capture (s)"; "PSMs gen. (s)"; "Analysis (s)"; "States";
      "Trans."; "MRE" ]
  in
  match rows with
  | [ _; _; _; _; _; _; _; _ ] ->
      let shorts = List.filteri (fun i _ -> i < 4) rows in
      let longs = List.filteri (fun i _ -> i >= 4) rows in
      let rendered = render_table ~header (List.map table2_cells shorts) in
      let width =
        match String.index_opt rendered '\n' with
        | Some i -> i
        | None -> 40
      in
      let dashed = String.make width '-' in
      let longs_rendered = render_table ~header (List.map table2_cells longs) in
      (* Drop the second header: keep rows only. *)
      let body =
        match String.split_on_char '\n' longs_rendered with
        | _ :: _ :: rest -> String.concat "\n" rest
        | _ -> longs_rendered
      in
      rendered ^ dashed ^ "\n" ^ body
  | _ -> render_table ~header (List.map table2_cells rows)

let table3 rows =
  render_table
    ~header:
      [ "IP"; "IP sim. (s)"; "IP+PSMs (s)"; "Overhead"; "PX-gate (s)"; "Speedup";
        "MRE"; "WSP" ]
    (List.map
       (fun (r : Experiment.table3_row) ->
         [ r.t3_name; seconds r.ip_sim_s; seconds r.ip_psm_s; percent r.overhead;
           seconds r.px_gate_s; Printf.sprintf "%.0fx" r.speedup; percent r.t3_mre;
           percent r.wsp ])
       rows)
