(** The cooperative lightweight-thread scheduler of §3.1.

    Threads are continuations queued in a run queue; [Fork] spawns a
    thunk as a new thread, [Yield] reschedules the current one, and
    [Suspend] parks the current thread, handing its resumer to arbitrary
    synchronisation code (this is how {!Mvar} blocks threads).

    The scheduling policy is a parameter: the paper observes that
    changing the run queue from FIFO to LIFO changes the scheduling
    algorithm without touching any other code.  {!Chaos} extends the
    same idea adversarially: a seeded chaos policy perturbs dequeue
    order, stashes resumes, injects spurious wakeups, and kills opted-in
    fibers at suspension points — all deterministically in the seed.

    Cancellation follows §2.3: {!fork_cancellable} returns a [cancel]
    handle that [discontinue]s the fiber with {!Cancelled} at its
    current (or next) suspension point, exactly once.  The discontinued
    fiber unwinds through its own cleanup handlers — the §3.2 [copy]
    pattern of closing resources on any exception keeps working — and
    its parked resumer becomes a no-op. *)

type policy = Fifo | Lifo

type 'a resumer = 'a -> unit
(** Resuming a parked thread: enqueues it, does not run it inline. *)

exception Cancelled
(** Raised at the suspension point of a fiber that has been cancelled
    via the handle returned by {!fork_cancellable}. *)

exception Killed
(** Raised at the suspension point of a fiber destroyed by the chaos
    engine (or by a supervisor's force-kill).  Unlike {!Cancelled} this
    is an {e abnormal} exit: supervisors restart on it, and the server
    crash barriers let it pass through rather than counting a 500. *)

exception One_shot
(** Raised by a resumer invoked a second time (continuations are
    one-shot, §5.2).  A resumer whose suspension was {e cancelled} is a
    no-op instead: the cancel consumed the continuation, so a late
    resume has nothing left to do and must not crash the resuming
    code. *)

(** The cancellation control cell shared between a fiber's runner and
    its cancel handle; {!current_ctl} returns the caller's. *)
module Ctl : sig
  type t

  val set_cleanup : t -> (unit -> unit) -> unit
  (** Install a hook fired exactly once if the fiber is cancelled (or
      chaos-killed) before its current suspension resumes: wait queues
      use it to purge the dead waiter eagerly.  Cleared automatically
      when the suspension resumes normally. *)

  val cancel : t -> unit
  (** Request cancellation: fires the cleanup hook, then discontinues
      the fiber with {!Cancelled} if it is suspended, otherwise marks it
      for discontinuation at its next suspension point.  One-shot; a
      no-op after the fiber finishes or after a previous cancel. *)
end

(** Seeded adversarial scheduling.  All draws come from one xoshiro
    stream at sites whose order is fixed by the deterministic scheduler,
    so a chaos run is a pure function of (workload seed, chaos seed):
    double runs are byte-identical.  With [chaos] absent every code path
    below is untouched — the frozen cost counters stay bit-identical. *)
module Chaos : sig
  type t = {
    seed : int;
    kill_rate : float;  (** P(kill a killable fiber at a suspension point) *)
    delay_rate : float;  (** P(stash a resume for a few scheduler ops) *)
    max_delay : int;  (** max stash duration, in dequeue steps *)
    reorder_rate : float;  (** P(dequeue an adversarial position instead) *)
    spurious_rate : float;  (** P(inject a spurious wakeup alongside a push) *)
  }

  val default : seed:int -> t

  type stats = { kills : int; delays : int; reorders : int; spurious : int }
end

val chaos_stats : unit -> Chaos.stats option
(** Injection counts of the most recent (or current) chaos-enabled
    {!run}, including the {!Aio} runners; [None] before any chaos
    run. *)

(** The scheduler effects are public so that handlers nested inside
    {!run} can intercept them — {!Aio}'s I/O handler re-wraps forked
    children this way.  An effect declared once composes with any
    handler that chooses to serve it. *)
type _ Effect.t +=
  | Fork : (unit -> unit) -> unit Effect.t
  | Yield : unit Effect.t
  | Suspend : (('a, exn) result -> string) * ('a resumer -> unit) -> 'a Effect.t
  | Fork_cancellable : (unit -> unit) -> (unit -> unit) Effect.t
  | Set_killable : bool -> unit Effect.t
  | Current_ctl : Ctl.t option Effect.t

val fork : (unit -> unit) -> unit
(** Must run inside {!run}. *)

val fork_cancellable : (unit -> unit) -> unit -> unit
(** [fork_cancellable f] spawns [f] like {!fork} and returns a
    [cancel] handle.  Calling it discontinues the fiber with
    {!Cancelled} at its current suspension (or its next one, if it is
    not currently parked), exactly once; calling it after the fiber has
    completed, or a second time, is a no-op. *)

val yield : unit -> unit

val suspend : ?wake:(('a, exn) result -> string) -> ('a resumer -> unit) -> 'a
(** [suspend f] parks the current thread and calls [f resumer]; the
    thread continues (with the value passed to the resumer) after some
    other code invokes it.  Invoking a resumer twice raises
    {!One_shot}; invoking it after the suspension was cancelled is a
    no-op.  [f] runs in the scheduler's handler, so it must not perform
    effects.

    [wake] names the wakeup in the eventlog: it is applied to the
    outcome when the thread becomes runnable — [Ok v] for a resume,
    [Error e] for a cancel — and its result is the [Wakeup] reason.
    Default ["wakeup"] for both. *)

val set_killable : bool -> unit
(** Opt the current fiber in (or out) of chaos kills.  Only fibers that
    opted in — supervised workers and nursery children, which have a
    restart / unwind story — are ever killed; bare fibers are not.
    A no-op outside {!run}. *)

val current_ctl : unit -> Ctl.t option
(** The control cell of the calling fiber, if it was spawned with
    {!fork_cancellable}.  Wait queues capture it {e before} parking to
    register an eager-purge cleanup.  [None] for plain fibers or
    outside a runner. *)

val run :
  ?policy:policy ->
  ?chaos:Chaos.t ->
  ?clock:(unit -> int) ->
  ?idle:(unit -> bool) ->
  (unit -> unit) ->
  unit
(** Runs the main thread and every forked descendant to completion.
    An exception escaping any thread aborts the whole scheduler run,
    except {!Cancelled} leaving a cancelled fiber and {!Killed} leaving
    a chaos-killed one, which are normal exits.

    [chaos] switches the run queue to the seeded adversarial policy.
    [clock] is the virtual clock used (only when tracing or metrics are
    enabled) to stamp runnable-enqueue instants: every enqueue records
    how long the thunk sat runnable before running, as a [Wakeup] event
    tagged with its cause (yield / fork / cancel / kill, or the
    suspension's [wake] name) and a
    [scheduler_runnable_wait_ns] histogram sample.  Defaults to
    {!Retrofit_util.Vclock.now}; pass the driving event loop's clock
    when one exists.  [idle] is called when the run queue is empty;
    returning [true] retries (use it to advance a virtual-time event
    loop that will resume parked fibers), [false] ends the run. *)

val stats_switches : unit -> int
(** Context switches performed by the most recent (or current) [run];
    used by the scheduling experiments. *)
