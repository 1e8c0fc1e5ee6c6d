(** Concurrent simulation of the combined PSM set under HMM control
    (paper Sec. V).

    At each instant the observed PI/PO sample is classified into a
    proposition; the current state's assertion — possibly a [simplify]
    cascade {p;q;…} tracked position by position, possibly a [join]
    alternative set {p‖q‖…} tracked as a set of live alternatives — decides
    whether the machine stays, advances inside the cascade, or exits
    through a transition. Non-deterministic exits and resynchronization
    jumps are resolved by HMM filtering (predict along A, condition on the
    observed entry proposition through B).

    When no alternative accepts the observation (an unknown behaviour),
    the machine reverts to the last valid state, bans the offending A
    entry, and attempts a filtered jump to a state that can recognize the
    observation; failing that it remains in the last valid state — whose
    power output keeps being emitted but is counted as unreliable — until
    a known behaviour reappears. These unreliable instants over the total
    gives the WSP (wrong-state prediction) metric of Table III. *)

type config = {
  resync_enabled : bool;
      (** Ablation switch: when false, a desynchronized machine can only
          recover by accidentally re-matching its current state (the
          Sec. III-C behaviour). Default true. *)
  on_resync : (cycle:int -> state:int -> prop:int option -> unit) option;
      (** Diagnostic hook invoked at each resynchronization event with the
          PSM state id and the observed proposition. Default [None]. *)
}

val default : config

type result = {
  estimate : float array;  (** Power estimate per instant. *)
  state_trace : int array;  (** PSM state id per instant; -1 = desynced. *)
  wrong_instants : int;
  wsp : float;  (** wrong_instants / length. *)
  resync_events : int;
}

val simulate : ?config:config -> Hmm.t -> Psm_trace.Functional_trace.t -> result
(** Steps the trace's observations
    ({!Psm_mining.Prop_trace.iter_observations}) through a fresh
    {!Stepper}. *)

(** The state machine one observation at a time, for cycle-by-cycle
    co-simulation with a live IP model and for serve sessions
    ({!simulate} is implemented on top of it). It consumes observations
    only: live sample feeds classify through
    {!Psm_mining.Prop_trace.Observer}. *)
module Stepper : sig
  type t

  val create : ?config:config -> Hmm.t -> t
  (** Resets the HMM's banned transitions. *)

  val classify : t -> Psm_bits.Bits.t array -> int option
  (** The proposition the model's table assigns to a sample ([None] =
      unknown behaviour). *)

  val step_classified : t -> hamming:float -> int option -> float * int
  (** Consume one observation — a proposition ([None] = unknown
      behaviour) and the input Hamming distance to the previous sample —
      and return (power estimate, current PSM state id or -1 when
      desynchronized). *)

  val cycles : t -> int
  val wrong_instants : t -> int
  val resync_events : t -> int

  type portable_mode =
    [ `Unstarted
    | `Synced of int * (int * int) list
      (** state row, live cursors as (alternative index, position) into
          that row's assertion *)
    | `Desynced of int  (** origin state row *) ]

  type portable = {
    p_mode : portable_mode;
    p_entered_via : (int * int) option;  (** (src row, dst row) *)
    p_progressed : bool;
    p_cycles : int;
    p_wrong_instants : int;
    p_resync_events : int;
    p_bans : (int * int) list;  (** (src row, dst row), oldest first *)
  }
  (** The stepper's complete resumable state as plain data: mode and
      live cursors, counters, and the ordered log of A
      bans since the last reset. This — not [Marshal] bytes, which are
      unsafe to decode from an untrusted source — is what session
      checkpoints serialize. *)

  val export : t -> portable

  val import : ?config:config -> Hmm.t -> portable -> (t, string) Stdlib.result
  (** A stepper continuing exactly where {!export} was taken: every
      field is validated against [hmm]'s model (row bounds, cursor
      alternative/position bounds, ban-log bounds) before
      any state is built, then the logged bans are replayed in order
      onto [hmm] (whose bans are reset first), reproducing the banned A
      float-for-float — stepping the imported stepper is bit-identical
      to never having stopped. [hmm] must be (a {!Hmm.copy} of) the
      model the export was taken on. *)

  (**/**)

  (* Introspection for the equivalence properties in the test suite. *)

  val successors : t -> row:int -> prop:int -> int list
  (** Graph successor rows of [row] through guard [prop], ascending —
      read from the precomputed index. *)

  val entries : t -> prop:int -> int list
  (** Rows with an alternative entered by [prop], ascending — read from
      the precomputed index. *)

  val one_hot_prediction : t -> origin_row:int -> int -> float
  (** [one_hot_prediction t ~origin_row r] is what {!Hmm.predict} of the
      one-hot belief on [origin_row] holds at row [r], computed from row
      [origin_row] of the current (possibly banned) A. *)
end
