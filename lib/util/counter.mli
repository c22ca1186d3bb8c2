(** Named monotonic counters.

    The exchange type for cost reports.  The fiber machine counts into
    a typed array (see [Retrofit_fiber.Costs.counter]) and renders its
    costs (instructions executed, overflow checks, stack copies,
    mallocs, cache hits, fiber switches) into a counter set, so that
    experiments, the analyzer's soundness checks and the metrics export
    can read and diff them by name. *)

type t

val create : unit -> t

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val of_list : (string * int) list -> t
(** A set holding the given counts; a name listed with 0 is present
    (it appears in {!to_list}). *)

val get : t -> string -> int
(** 0 for names never incremented. *)

val reset : t -> unit

val to_list : t -> (string * int) list
(** Sorted by name. *)

val diff : t -> t -> (string * int) list
(** [diff a b] is, for each name present in either, [get a n - get b n],
    omitting zero entries; sorted by name. *)
