module Trace = Retrofit_trace.Trace
module Tev = Retrofit_trace.Event
module Metrics = Retrofit_metrics.Metrics
module Rng = Retrofit_util.Rng

type policy = Fifo | Lifo

type 'a resumer = 'a -> unit

exception Cancelled

exception Killed

exception One_shot

(* Cancellation protocol (§2.3): a cancellable fiber owns a control cell
   shared between its runner and the cancel handle.  While the fiber is
   parked the cell holds a discontinue hook; cancel fires it exactly
   once, turning the suspension's resumer into a no-op.  Every blocking
   point parks through [Suspend] — Mvar takes, Aio's pending reads,
   supervisor waits — so this is the only place the protocol lives. *)
module Ctl = struct
  type t = {
    mutable requested : bool;
    mutable parked : (exn -> unit) option;
    mutable finished : bool;
    mutable killable : bool;
    mutable cleanup : (unit -> unit) option;
        (* fired exactly once when cancel strikes while this cell is
           parked (or armed for its next park): lets wait queues purge
           the dead waiter eagerly instead of leaving a no-op resumer
           behind.  Cleared on a normal resume. *)
  }

  let create () =
    {
      requested = false;
      parked = None;
      finished = false;
      killable = false;
      cleanup = None;
    }

  let finish t = t.finished <- true

  let cancelled t = t.requested

  let set_parked t d = t.parked <- Some d

  let clear_parked t = t.parked <- None

  let set_cleanup t f = t.cleanup <- Some f

  let clear_cleanup t = t.cleanup <- None

  let run_cleanup t =
    match t.cleanup with
    | Some f ->
        t.cleanup <- None;
        f ()
    | None -> ()

  let cancel t =
    if (not t.finished) && not t.requested then begin
      t.requested <- true;
      run_cleanup t;
      match t.parked with
      | Some d ->
          t.parked <- None;
          d Cancelled
      | None -> ()
    end

  (* Wire one suspension point.  The returned resumer enqueues a resume
     on first use, raises [One_shot] on a second use, and becomes a
     no-op once the suspension has been cancelled.  [enqueue] sees the
     outcome it is scheduling, so the runner can name the wakeup. *)
  let arm ?ctl ~enqueue ~continue ~discontinue =
    let state = ref `Waiting in
    (match ctl with
    | Some c ->
        set_parked c (fun e ->
            state := `Cancelled;
            enqueue (Error e) (fun () -> discontinue e))
    | None -> ());
    fun v ->
      match !state with
      | `Waiting ->
          state := `Resumed;
          (match ctl with
          | Some c ->
              clear_parked c;
              clear_cleanup c
          | None -> ());
          enqueue (Ok v) (fun () -> continue v)
      | `Resumed -> raise One_shot
      | `Cancelled -> ()
end

(* Deterministic adversarial scheduling (chaos mode).  Every decision is
   drawn from a dedicated xoshiro stream seeded by the config, at sites
   whose order is itself deterministic (the cooperative scheduler's
   enqueue/dequeue sequence), so a chaos run is a pure function of
   (workload seed, chaos seed): double runs are byte-identical and a
   failing seed shrinks like a conformance-oracle diff. *)
module Chaos = struct
  type t = {
    seed : int;
    kill_rate : float;  (** P(kill a killable fiber at a suspension point) *)
    delay_rate : float;  (** P(stash a resume for a few scheduler ops) *)
    max_delay : int;  (** max stash duration, in dequeue steps *)
    reorder_rate : float;  (** P(dequeue an adversarial position instead) *)
    spurious_rate : float;  (** P(inject a spurious wakeup alongside a push) *)
  }

  let default ~seed =
    {
      seed;
      kill_rate = 0.002;
      delay_rate = 0.05;
      max_delay = 4;
      reorder_rate = 0.1;
      spurious_rate = 0.02;
    }

  type stats = { kills : int; delays : int; reorders : int; spurious : int }

  type state = {
    cfg : t;
    rng : Rng.t;
    mutable delayed : (int * (unit -> unit)) list;
        (* (remaining dequeue steps, thunk), in stash order *)
    mutable kills : int;
    mutable delays : int;
    mutable reorders : int;
    mutable spurious : int;
  }

  let latest : state option ref = ref None

  let make cfg =
    let st =
      {
        cfg;
        rng = Rng.create cfg.seed;
        delayed = [];
        kills = 0;
        delays = 0;
        reorders = 0;
        spurious = 0;
      }
    in
    latest := Some st;
    st

  let hit st rate = rate > 0.0 && Rng.float st.rng 1.0 < rate

  let snapshot st =
    {
      kills = st.kills;
      delays = st.delays;
      reorders = st.reorders;
      spurious = st.spurious;
    }

  let inject _st kind =
    if Metrics.on () then
      Metrics.inc "sched_chaos_injections_total" ~labels:[ ("kind", kind) ];
    if Trace.on () then Trace.emit ~ts:0 (Tev.Chaos_inject { kind })

  (* Turn a runner's raw (push, pop) pair into the chaos-perturbed pair.
     [run_next] must be tied to the runner's drain function before the
     first pop: spurious wakeups are raw queue entries and must keep the
     drain chain alive (a bare no-op thunk would stall the runner). *)
  let wrap st ~push ~pop ~depth ~pop_nth ~run_next =
    let cpush thunk =
      (if hit st st.cfg.delay_rate then begin
         st.delays <- st.delays + 1;
         inject st "delay";
         let ttl = 1 + Rng.int st.rng st.cfg.max_delay in
         st.delayed <- st.delayed @ [ (ttl, thunk) ]
       end
       else push thunk);
      if hit st st.cfg.spurious_rate then begin
        st.spurious <- st.spurious + 1;
        inject st "spurious";
        push (fun () -> !run_next ())
      end
    in
    let cpop () =
      (* age the stash; expired resumes rejoin the queue in order *)
      (if st.delayed <> [] then
         let due, still = List.partition (fun (ttl, _) -> ttl <= 1) st.delayed in
         st.delayed <- List.map (fun (ttl, t) -> (ttl - 1, t)) still;
         List.iter (fun (_, t) -> push t) due);
      let d = depth () in
      if d = 0 then
        (* never strand a stashed resume: if the queue ran dry, the
           oldest delayed thunk runs now regardless of its ttl *)
        match st.delayed with
        | (_, t) :: rest ->
            st.delayed <- rest;
            Some t
        | [] -> None
      else if d > 1 && hit st st.cfg.reorder_rate then begin
        st.reorders <- st.reorders + 1;
        inject st "reorder";
        Some (pop_nth (1 + Rng.int st.rng (d - 1)))
      end
      else pop ()
    in
    (cpush, cpop)

  (* Seeded kill: fires only for fibers that opted in via
     [set_killable], and only at a suspension point, where discontinuing
     is always legal. *)
  let kill_draw st_opt (ctl : Ctl.t option) =
    match (st_opt, ctl) with
    | Some st, Some c
      when c.Ctl.killable && (not c.Ctl.requested) && not c.Ctl.finished ->
        if hit st st.cfg.kill_rate then begin
          st.kills <- st.kills + 1;
          inject st "kill";
          if Metrics.on () then Metrics.inc "sched_chaos_kills_total";
          true
        end
        else false
    | _ -> false
end

let chaos_stats () = Option.map Chaos.snapshot !Chaos.latest

type _ Effect.t +=
  | Fork : (unit -> unit) -> unit Effect.t
  | Yield : unit Effect.t
  | Suspend : (('a, exn) result -> string) * ('a resumer -> unit) -> 'a Effect.t
  | Fork_cancellable : (unit -> unit) -> (unit -> unit) Effect.t
  | Set_killable : bool -> unit Effect.t
  | Current_ctl : Ctl.t option Effect.t

let fork f = Effect.perform (Fork f)

let fork_cancellable f = Effect.perform (Fork_cancellable f)

let yield () = Effect.perform Yield

let wakeup _ = "wakeup"

let suspend ?(wake = wakeup) f = Effect.perform (Suspend (wake, f))

let set_killable b =
  try Effect.perform (Set_killable b) with Effect.Unhandled _ -> ()

let current_ctl () =
  try Effect.perform Current_ctl with Effect.Unhandled _ -> None

let switches = ref 0

let stats_switches () = !switches

(* The run queue holds thunks rather than bare continuations so that
   resumers can close over the value to deliver (§3.1's asynchronous
   variant uses the same representation). *)
type runq = {
  queue : (unit -> unit) Queue.t;
  stack : (unit -> unit) Stack.t;
  policy : policy;
  mutable ops : int;
      (* enqueue/dequeue sequence number: the deterministic time base
         that stamps this scheduler's depth track in the eventlog *)
}

let rq_depth rq = Queue.length rq.queue + Stack.length rq.stack

let rq_observe rq =
  rq.ops <- rq.ops + 1;
  Trace.emit ~ts:rq.ops (Tev.Runq_depth { depth = rq_depth rq })

let rq_push rq thunk =
  (match rq.policy with
  | Fifo -> Queue.push thunk rq.queue
  | Lifo -> Stack.push thunk rq.stack);
  if Metrics.on () then Metrics.inc "sched_runq_pushes_total";
  if Trace.on () then rq_observe rq

let rq_pop rq =
  let popped =
    match rq.policy with
    | Fifo -> (
        match Queue.pop rq.queue with t -> Some t | exception Queue.Empty -> None)
    | Lifo -> (
        match Stack.pop rq.stack with t -> Some t | exception Stack.Empty -> None)
  in
  (match popped with Some _ when Trace.on () -> rq_observe rq | _ -> ());
  popped

(* Dequeue the element [n] positions below the normal one, preserving
   the relative order of the elements skipped over. *)
let rq_pop_nth rq n =
  match rq.policy with
  | Fifo ->
      let rec rotate i =
        if i > 0 then begin
          Queue.push (Queue.pop rq.queue) rq.queue;
          rotate (i - 1)
        end
      in
      let len = Queue.length rq.queue in
      let n = n mod len in
      (* take the n-th: rotate it to the front, pop, then restore order *)
      rotate n;
      let target = Queue.pop rq.queue in
      rotate (len - 1 - n);
      target
  | Lifo ->
      let skipped = ref [] in
      for _ = 1 to n mod Stack.length rq.stack do
        skipped := Stack.pop rq.stack :: !skipped
      done;
      let target = Stack.pop rq.stack in
      List.iter (fun t -> Stack.push t rq.stack) !skipped;
      target

let run ?(policy = Fifo) ?chaos ?(clock = Retrofit_util.Vclock.now) ?idle main =
  let rq = { queue = Queue.create (); stack = Stack.create (); policy; ops = 0 } in
  switches := 0;
  let chst = Option.map Chaos.make chaos in
  let run_next_cell = ref (fun () -> ()) in
  let push, pop =
    match chst with
    | None -> (rq_push rq, fun () -> rq_pop rq)
    | Some st ->
        Chaos.wrap st ~push:(rq_push rq)
          ~pop:(fun () -> rq_pop rq)
          ~depth:(fun () -> rq_depth rq)
          ~pop_nth:(rq_pop_nth rq) ~run_next:run_next_cell
  in
  (* Runnable-wait instrumentation sits {e above} the chaos wrap: a
     resume stashed by the chaos delay fault is still runnable the whole
     time, so its stash duration must count as scheduler wait.  Chaos's
     own spurious wakeups go through the raw push underneath and are
     never tagged.  With tracing and metrics both off this is the bare
     push — no clock reads, no closure per thunk. *)
  let push_r reason thunk =
    if Trace.on () || Metrics.on () then begin
      let t0 = clock () in
      push (fun () ->
          let w = clock () - t0 in
          let w = if w < 0 then 0 else w in
          if Metrics.on () then
            Metrics.observe ~max_value:1_000_000_000
              "scheduler_runnable_wait_ns" w;
          if Trace.on () then
            Trace.emit ~ts:(clock ()) (Tev.Wakeup { reason; wait_ns = w });
          thunk ())
    end
    else push thunk
  in
  (* The control cell of the fiber currently executing; every thunk that
     re-enters a fiber restores it so nested suspensions park against
     the right cell. *)
  let current : Ctl.t option ref = ref None in
  let rec run_next () =
    match pop () with
    | Some thunk ->
        incr switches;
        if Metrics.on () then Metrics.inc "sched_switches_total";
        thunk ()
    | None -> (
        match idle with
        | Some f -> if f () then run_next ()
        | None -> ())
  in
  run_next_cell := run_next;
  let kill_draw ctl = Chaos.kill_draw chst ctl in
  let rec spawn : Ctl.t option -> (unit -> unit) -> unit =
   fun ctl f ->
    current := ctl;
    Effect.Deep.match_with f ()
      {
        Effect.Deep.retc =
          (fun () ->
            (match ctl with Some c -> Ctl.finish c | None -> ());
            run_next ());
        exnc =
          (fun e ->
            (* A discontinued fiber unwinds with Cancelled after its
               cleanup handlers; that is a normal exit, not an error.
               A chaos-killed fiber unwinds with Killed the same way. *)
            match (ctl, e) with
            | Some c, Cancelled when Ctl.cancelled c ->
                Ctl.finish c;
                run_next ()
            | Some c, Killed ->
                Ctl.finish c;
                Ctl.run_cleanup c;
                run_next ()
            | _ -> raise e);
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (c, unit) Effect.Deep.continuation) ->
                    let ctl = !current in
                    if kill_draw ctl then
                      push_r "kill" (fun () ->
                          current := ctl;
                          Effect.Deep.discontinue k Killed)
                    else
                      push_r "yield" (fun () ->
                          current := ctl;
                          Effect.Deep.continue k ());
                    run_next ())
            | Fork f' ->
                Some
                  (fun (k : (c, unit) Effect.Deep.continuation) ->
                    let ctl = !current in
                    push_r "fork" (fun () ->
                        current := ctl;
                        Effect.Deep.continue k ());
                    spawn None f')
            | Fork_cancellable f' ->
                Some
                  (fun (k : (c, unit) Effect.Deep.continuation) ->
                    let parent = !current in
                    let child = Ctl.create () in
                    push_r "fork" (fun () ->
                        current := parent;
                        Effect.Deep.continue k (fun () -> Ctl.cancel child));
                    spawn (Some child) f')
            | Suspend (wake, f) ->
                Some
                  (fun (k : (c, unit) Effect.Deep.continuation) ->
                    let ctl = !current in
                    (match ctl with
                    | Some c when Ctl.cancelled c ->
                        (* Cancel arrived before this park: discontinue
                           straight away instead of parking. *)
                        push_r "cancel" (fun () ->
                            current := ctl;
                            Effect.Deep.discontinue k Cancelled)
                    | _ ->
                        if kill_draw ctl then
                          (* killed instead of parked: the waiter is
                             never handed to [f], so no queue ever holds
                             a dead resumer for it *)
                          push_r "kill" (fun () ->
                              current := ctl;
                              Effect.Deep.discontinue k Killed)
                        else
                          let resumer =
                            Ctl.arm ?ctl
                              ~enqueue:(fun r -> push_r (wake r))
                              ~continue:(fun v ->
                                current := ctl;
                                Effect.Deep.continue k v)
                              ~discontinue:(fun e ->
                                current := ctl;
                                Effect.Deep.discontinue k e)
                          in
                          f resumer);
                    run_next ())
            | Set_killable b ->
                Some
                  (fun (k : (c, unit) Effect.Deep.continuation) ->
                    (match !current with
                    | Some c -> c.Ctl.killable <- b
                    | None -> ());
                    Effect.Deep.continue k ())
            | Current_ctl ->
                Some
                  (fun (k : (c, unit) Effect.Deep.continuation) ->
                    Effect.Deep.continue k !current)
            | _ -> None);
      }
  in
  spawn None main
