(** The wrk2-style measurement harness (Fig 6), with its resilience
    layer.

    Drives a server (a cost model plus a real [process_raw] code path)
    with an open-loop constant-rate workload and records
    coordinated-omission-free latencies in an HDR histogram: each
    request's latency is measured from its {e scheduled} arrival time,
    so a backed-up server accrues queueing delay instead of silently
    slowing the load down.

    There is one engine: a virtual single-CPU FIFO world with
    per-request deadlines, client-side retry with exponential backoff
    and jitter, admission control (shedding to 503 past a queue-depth
    cap), and deadline propagation (expired requests answered 408
    without paying service time).  A fault plan ([?faults]) perturbs
    the arrivals; a resilience policy ([?resilience]) sets the
    deadlines, retries and cap.  The Fig 6 runs use neither: no faults
    and {!lenient_resilience}. *)

type fault_account = {
  injected : int;  (** faults tagged onto the trace by {!Faults.plan} *)
  to_malformed : int;  (** wire damage that earned a 4xx *)
  to_retried : int;  (** drops recovered by a client retry *)
  to_timeout : int;  (** faults that killed the request *)
  to_server_error : int;  (** backend crashes that produced a 500 *)
  to_absorbed : int;  (** faults fully masked by the resilience layer *)
}
(** Where each injected fault ended up.  Attribution is exclusive:
    [injected = to_malformed + to_retried + to_timeout +
    to_server_error + to_absorbed] (a tested invariant). *)

type resilience = {
  deadline_ns : int;  (** end-to-end budget from first scheduled arrival *)
  max_attempts : int;  (** total tries, first attempt included *)
  backoff_base_ns : int;  (** retry [n] waits [base * 2^(n-1) + jitter] *)
  backoff_jitter_ns : int;  (** uniform in [0, jitter] *)
  drop_detect_ns : int;  (** how long the client takes to notice a drop *)
  queue_cap : int;  (** admission control: depth past this sheds to 503 *)
}

val default_resilience : resilience
(** 1 s deadline, 3 attempts, 1 ms base backoff with 0.5 ms jitter,
    0.2 ms drop detection, queue cap 512. *)

val lenient_resilience : resilience
(** Effectively-infinite deadline and cap, no retries: the policy of
    a {!run} without options.  Under {!Faults.none} every request is
    then served and completes. *)

type outcome = {
  model_name : string;
  offered_rps : int;
  achieved_rps : float;
  goodput_rps : float;
      (** 200s delivered within deadline per second of virtual time;
          always equal to [achieved_rps] *)
  total_requests : int;  (** distinct requests in the trace *)
  completed : int;  (** 200 within deadline *)
  errors : int;  (** = [timeouts + malformed] *)
  timeouts : int;  (** deadline expired or retry budget exhausted *)
  retries : int;  (** retry attempts issued (event count) *)
  shed : int;  (** 503s from admission control (event count) *)
  malformed : int;  (** requests terminally rejected with a 4xx *)
  server_errors : int;  (** 500s from the crash barrier (event count) *)
  faults : fault_account;
  gc_pauses : int;
  mean_ns : float;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
}
(** Request dispositions are exclusive and exhaustive:
    [completed + timeouts + malformed = total_requests] (a tested
    invariant).  [shed], [server_errors] and [retries] count events
    along the way, not final dispositions. *)

val run :
  ?seed:int ->
  ?connections:int ->
  ?faults:Faults.rates ->
  ?resilience:resilience ->
  model:Server.model ->
  process:(string -> string) ->
  rate_rps:int ->
  duration_ms:int ->
  unit ->
  outcome
(** Simulate [duration_ms] of constant-rate load (default 1000
    connections, as in the paper).  Each request really executes
    [process]; its virtual completion time comes from the model's cost
    constants and a single-CPU queue with GC pauses.

    [?faults] defaults to {!Faults.none}.  [?resilience] defaults to
    {!default_resilience} when [?faults] is given and to
    {!lenient_resilience} when it is not, so a run without options is
    the zero-fault Fig 6 measurement. *)
