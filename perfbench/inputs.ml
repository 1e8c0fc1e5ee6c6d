(* Seeded benchmark inputs. Every input is a pure function of the
   benchmark seed: training stimuli, held-out stimuli (from a seed derived
   under a different tag, never the training one), the dwell-controller
   traces and the serve plans. *)

module Bits = Psm_bits.Bits
module Ip = Psm_ips.Ip
module Workloads = Psm_ips.Workloads
module Interface = Psm_trace.Interface
module Signal = Psm_trace.Signal
module Functional_trace = Psm_trace.Functional_trace
module Power_trace = Psm_trace.Power_trace
module Vcd = Psm_trace.Vcd

(* ---------- seed derivation ---------- *)

let splitmix x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* FNV-1a over the tag, mixed with the seed: [derive seed "train/RAM/0"]
   and [derive seed "heldout/RAM"] are unrelated streams. *)
let derive seed tag =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    tag;
  splitmix (Int64.logxor (splitmix (Int64.of_int seed)) !h)

let rng seed tag = Psm_stats.Prng.create ~seed:(derive seed tag)

(* ---------- the paper's four IPs ---------- *)

type ip_spec = {
  name : string;
  create : unit -> Ip.t;
  short : length:int -> seed:int64 -> Workloads.stimulus;
  long : length:int -> seed:int64 -> Workloads.stimulus;
}

let paper_ips =
  [ { name = "RAM";
      create = Psm_ips.Ram.create;
      short = (fun ~length ~seed -> Workloads.ram_short ~length ~seed ());
      long = (fun ~length ~seed -> Workloads.ram_long ~length ~seed ()) };
    { name = "MultSum";
      create = Psm_ips.Multsum.create;
      short = (fun ~length ~seed -> Workloads.multsum_short ~length ~seed ());
      long = (fun ~length ~seed -> Workloads.multsum_long ~length ~seed ()) };
    { name = "AES";
      create = Psm_ips.Aes.create;
      short = (fun ~length ~seed -> Workloads.aes_short ~length ~seed ());
      long = (fun ~length ~seed -> Workloads.aes_long ~length ~seed ()) };
    { name = "Camellia";
      create = Psm_ips.Camellia.create;
      short = (fun ~length ~seed -> Workloads.camellia_short ~length ~seed ());
      long = (fun ~length ~seed -> Workloads.camellia_long ~length ~seed ()) } ]

(* Capture [stimulus] on a freshly reset IP and write it, with its
   reference power, as one VCD file. Returns the cycle count. *)
let write_capture (ip : Ip.t) stimulus path =
  let trace, power = Psm_ips.Capture.run ip stimulus in
  Vcd.write_file ~power path trace;
  Functional_trace.length trace

(* A short-TS training suite of [parts] testbenches totalling
   [scale] x the paper's Table II length, one VCD per testbench; each
   testbench has its own seed derived from the benchmark seed. Returns
   (paths, cycles). *)
let write_training_suite ~dir ~seed ~scale ~parts (spec : ip_spec) =
  let ip = spec.create () in
  let total =
    int_of_float (scale *. float_of_int (Workloads.paper_short_length spec.name))
  in
  let files =
    List.init parts (fun k ->
        let path = Filename.concat dir (Printf.sprintf "train-%s-%d.vcd" spec.name k) in
        let stimulus =
          spec.short ~length:(total / parts)
            ~seed:(derive seed (Printf.sprintf "train/%s/%d" spec.name k))
        in
        (path, write_capture ip stimulus path))
  in
  (List.map fst files, List.fold_left (fun acc (_, n) -> acc + n) 0 files)

(* One held-out long-TS capture per IP, from the held-out seed stream. *)
let write_heldout ~dir ~seed ~length (spec : ip_spec) =
  let ip = spec.create () in
  let path = Filename.concat dir (Printf.sprintf "heldout-%s.vcd" spec.name) in
  let stimulus =
    spec.long ~length ~seed:(derive seed (Printf.sprintf "heldout/%s" spec.name))
  in
  (path, write_capture ip stimulus path)

(* ---------- the dwell power-mode controller ---------- *)

(* A power-mode controller that sits in one of eight modes for a variable
   dwell (uniform in [32, 96] cycles, mean 64), so about 98% of samples
   repeat the previous one. The next mode is the successor mode half of
   the time and a uniformly drawn other mode otherwise. Power is a
   per-mode level with a small deterministic ripple. *)
let dwell_iface =
  Interface.create
    [ Signal.input "mode" 3;
      Signal.input "req" 1;
      Signal.input "dvfs" 2;
      Signal.output "busy" 1;
      Signal.output "level" 2 ]

let dwell_modes = 8

let dwell_samples =
  Array.init dwell_modes (fun m ->
      let req = m land 1 in
      let busy = if m >= 4 then 1 else req in
      [| Bits.of_int ~width:3 m;
         Bits.of_int ~width:1 req;
         Bits.of_int ~width:2 (m / 3);
         Bits.of_int ~width:1 busy;
         Bits.of_int ~width:2 (m / 2) |])

let dwell_power m i =
  let busy = if m >= 4 then 1 else m land 1 in
  let base = 1.0 +. (0.9 *. float_of_int m) +. (1.6 *. float_of_int busy) in
  base *. (1. +. (0.01 *. float_of_int ((i mod 5) - 2)))

(* [cycles] cycles of the controller from the [tag] stream of [seed],
   written as one VCD. *)
let write_dwell ~seed ~tag ~cycles path =
  let rng = rng seed tag in
  let b = Functional_trace.Builder.create dwell_iface in
  let powers = Array.make cycles 0. in
  let mode = ref (Psm_stats.Prng.int rng dwell_modes) in
  let i = ref 0 in
  while !i < cycles do
    let dwell = 32 + Psm_stats.Prng.int rng 65 in
    let stop = min cycles (!i + dwell) in
    for t = !i to stop - 1 do
      Functional_trace.Builder.append b dwell_samples.(!mode);
      powers.(t) <- dwell_power !mode t
    done;
    i := stop;
    mode :=
      if Psm_stats.Prng.bool rng then (!mode + 1) mod dwell_modes
      else (!mode + 1 + Psm_stats.Prng.int rng (dwell_modes - 1)) mod dwell_modes
  done;
  Vcd.write_file ~power:(Power_trace.of_array powers) path
    (Functional_trace.Builder.finish b)

(* ---------- the serve stress model's training trace ---------- *)

(* A synthetic IP with 160 power behaviours selected by an 8-bit mode
   register, 48-cycle dwell and exponentially spread power levels; mined
   into a PSM/HMM of 100+ states, the scale where the filter sweep, not
   session bookkeeping, dominates a request. *)
let write_stress path =
  let iface =
    Interface.create
      [ Signal.input "mode" 8; Signal.input "req" 1; Signal.output "busy" 1 ]
  in
  let nbehaviors = 160 and dwell = 48 in
  let len = nbehaviors * dwell * 4 in
  let b = Functional_trace.Builder.create iface in
  let powers = Array.make len 0. in
  for i = 0 to len - 1 do
    let m = i / dwell mod nbehaviors in
    let req = m land 1 in
    let busy = if m mod 3 = 0 then 1 else req in
    Functional_trace.Builder.append b
      [| Bits.of_int ~width:8 m; Bits.of_int ~width:1 req; Bits.of_int ~width:1 busy |];
    powers.(i) <- (1.18 ** float_of_int m) *. (2. +. (0.3 *. float_of_int busy))
  done;
  Vcd.write_file ~power:(Power_trace.of_array powers) path
    (Functional_trace.Builder.finish b);
  len

(* ---------- files ---------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)
