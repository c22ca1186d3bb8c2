(** Structured diagnostics of the static effect-safety analyzer.

    Verdicts are three-valued.  For the escape lints the soundness
    direction is {e may}: [Safe] claims the behaviour cannot happen in
    any execution (the claim the fuzzer cross-checks against the
    runtime), [May] that some over-approximated path exhibits it, and
    [Must] that a conservative straight-line interpretation proves it on
    every terminating run.  [Dead_handler_clause] points the other way:
    it is emitted only when the over-approximation shows the clause can
    never fire, so it is always a [Must]. *)

type verdict = Safe | May | Must

type clause = Eff_clause | Exn_clause

type kind =
  | Possibly_unhandled of { effect_name : string }
      (** the effect may escape every handler and reach toplevel, where
          the runtime raises [Unhandled] at the perform site (§3.2) *)
  | Effect_across_c_frame of { effect_name : string; cfun : string }
      (** the perform is reachable under an external-call frame with no
          intervening handler — the §5.3 prohibition *)
  | Dead_handler_clause of { clause : clause; label : string; case_fn : string }
  | May_resume_twice of { origin : string }
      (** a one-shot violation: some path resumes the continuation twice;
          the second resume raises [Invalid_argument] (§3.1) *)
  | May_leak of { origin : string }
      (** the linear-resource leak: a captured continuation on which
          neither [Continue] nor [Discontinue] is reachable *)
  | Redzone_unsound of {
      claimed_frame : int;
      computed_frame : int;
      claimed_leaf : bool;
      computed_leaf : bool;
    }
      (** the §5.2 elision rule would skip the prologue check, but the
          recomputed frame usage could overrun the red zone *)
  | Megamorphic_dispatch of { effect_name : string; outcomes : int }
      (** the handler-resolution pass found too many distinct dynamic
          dispatch outcomes at this perform site for an inline cache *)
  | Unbounded_cost of { counter : Retrofit_fiber.Costs.counter; cause : string }
      (** the cost-bound pass cannot give the named runtime counter a
          finite whole-program bound (recursion, a non-constant loop
          count, or an opaque external call) *)

type t = {
  kind : kind;
  verdict : verdict;
  fn : string;  (** source function the finding anchors to *)
  path : string list;  (** call-graph witness from [main], outermost first *)
  site : string;  (** printed fragment of the offending expression *)
}

type report = {
  diags : t list;
  unhandled : verdict;  (** can the program end with outcome [Unhandled]? *)
  one_shot : verdict;  (** can it end with a one-shot violation? *)
}

val verdict_to_string : verdict -> string

val kind_label : kind -> string

val to_string : ?loc:(string -> string option) -> t -> string
(** [loc] maps a witness-path function name to a terminal-clickable
    [file:line] position; steps with a position render as
    [name(file:line)]. *)

val locator :
  file:string -> Retrofit_fiber.Ir.program -> string -> string option
(** Positions every function at its line in the
    {!Retrofit_fiber.Ir.program_to_string} listing of [file] — one
    function per line, program order. *)

val sorted : t list -> t list
(** Deterministic order: kind label, then function, then detail. *)

val dedup : t list -> t list
(** {!sorted}, with findings that differ only in witness path (same
    kind, verdict, function and site) collapsed to the one with the
    shortest — then lexicographically least — path. *)

val report_to_string : ?loc:(string -> string option) -> report -> string
