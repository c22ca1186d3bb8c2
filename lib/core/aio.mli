(** Asynchronous I/O via effects: the run functions of §3.1.

    Client code performs [In_line]/[Out_str] through {!input_line} and
    {!output_string} — the same signatures as the standard library — and
    composes with {!Sched.fork} and {!Sched.yield}.  Both runners are
    {!Sched.run} around one I/O handler that wraps every thread (and
    every child it forks); threads, MVars, cancellation and chaos come
    from the scheduler.  The choice between blocking and asynchronous
    I/O is made {e solely} by that handler:

    - {!run_sync} services each read by blocking (advancing virtual
      time) while every other thread waits;
    - {!run_async} parks a read that is not ready with {!Sched.suspend}
      in a pending set, lets other threads run, and only advances time
      when the run queue is empty — the paper's
      [pending_reads]/[do_reads] structure.

    Requirement R4 (forwards compatibility) is thus observable: the
    same client code, run under [run_async], overlaps its I/O; virtual
    completion times prove it (see the tests and the async_io example).

    Exceptional completions use [discontinue]: end of input raises
    [End_of_file] and closed channels [Sys_error] at the perform site,
    so defensive resource-cleanup code written for blocking I/O (§3.2)
    keeps working.  Cancellation uses the same mechanism: a fiber
    spawned with {!Sched.fork_cancellable} under {!run_async} can be
    cancelled while parked on a read, which is an ordinary [Suspend];
    it is discontinued with {!Sched.Cancelled}, running its cleanup
    handlers, and leaves the pending set at once.

    Observability: a parked read wakes with reason [io-line], [io-eof],
    [io-error] or [cancel]; the pending-set depth is the [Io_pending]
    counter track, stamped on the event-loop clock; each park counts in
    [aio_parked_reads_total]. *)

val input_line : Chan.ic -> string
(** Performs [In_line]; must run under one of the runners. *)

val output_string : Chan.oc -> string -> unit
(** Performs [Out_str]. *)

val run_sync : ?chaos:Sched.Chaos.t -> Evloop.t -> (unit -> unit) -> unit
(** Reads block inline, so a sync read cannot be cancelled mid-wait.
    [chaos] is passed to {!Sched.run}: kills at suspension points
    (including parked reads), delayed resumes, reorders, spurious
    wakeups.  The scheduler's clock is the loop's {!Evloop.now}. *)

val run_async : ?chaos:Sched.Chaos.t -> Evloop.t -> (unit -> unit) -> unit
(** @raise Failure when every thread waits on a read and the event loop
    has nothing left to deliver. *)

type timeout_status = [ `Running | `Done | `Cancelled ]

val timeout : Evloop.t -> delay:int -> (unit -> unit) -> unit -> timeout_status
(** [timeout loop ~delay f] forks [f] cancellably and registers a
    virtual-time timer that cancels it if it is still running [delay]
    ns later; built on {!Sched.fork_cancellable} exactly as §2.3
    prescribes.  Returns a status thunk.  Must be called from inside a
    runner.  The timer only fires when the event loop advances, i.e.
    when all threads are parked on I/O (the only situation in which
    virtual time passes). *)

val copy : Chan.ic -> Chan.oc -> unit
(** The §3.2 copy loop, verbatim in structure: reads lines until
    [End_of_file], closing both channels on all exits and re-raising
    unexpected exceptions.  Works unchanged under both runners, and —
    because the cleanup is exception-driven — releases its channels
    when cancelled mid-read. *)
