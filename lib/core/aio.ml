module Trace = Retrofit_trace.Trace
module Tev = Retrofit_trace.Event
module Metrics = Retrofit_metrics.Metrics

type _ Effect.t +=
  | In_line : Chan.ic -> string Effect.t
  | Out_str : Chan.oc * string -> unit Effect.t

let input_line ic = Effect.perform (In_line ic)

let output_string oc s = Effect.perform (Out_str (oc, s))

(* A parked read: the channel and the resumer of the [Sched.suspend]
   that holds the reading thread. *)
type pending = { ic : Chan.ic; resume : (string, exn) result Sched.resumer }

type mode = Sync | Async

type timeout_status = [ `Running | `Done | `Cancelled ]

(* The outcome of a read that would not block; [None] if it would. *)
let poll ic =
  match Chan.read_line_nonblock ic with
  | `Line line -> Some (Ok line)
  | `Eof -> Some (Error End_of_file)
  | `Not_ready -> None
  | exception (Sys_error _ as e) -> Some (Error e)

let wake = function
  | Ok (Ok _) -> "io-line"
  | Ok (Error End_of_file) -> "io-eof"
  | Ok (Error _) -> "io-error"
  | Error _ -> "cancel"

let deliver k = function
  | Ok v -> Effect.Deep.continue k v
  | Error e -> Effect.Deep.discontinue k e

(* The runner is [Sched.run] around an I/O handler: the handler serves
   [In_line]/[Out_str] for one thread, re-wraps the children that thread
   forks, and lets every other scheduler effect through.  Threads,
   cancellation and chaos all come from the scheduler; the mode decides
   only what a read that is not ready does. *)
let run mode ?chaos loop main =
  let pending : pending list ref = ref [] in
  (* The event-loop clock stamps this loop's I/O depth track. *)
  let observe_pending () =
    if Trace.on () then
      Trace.emit ~ts:(Evloop.now loop)
        (Tev.Io_pending { depth = List.length !pending })
  in
  (* Runs in the scheduler's handler: no effects here.  The cleanup
     purges a cancelled (or killed) read eagerly, so the pending depth
     never counts dead waiters. *)
  let park ctl ic resume =
    let p = { ic; resume } in
    (match ctl with
    | Some c ->
        Sched.Ctl.set_cleanup c (fun () ->
            pending := List.filter (fun q -> q != p) !pending;
            observe_pending ())
    | None -> ());
    pending := p :: !pending;
    if Metrics.on () then Metrics.inc "aio_parked_reads_total";
    observe_pending ()
  in
  let read ic =
    match mode with
    | Sync -> ( try Ok (Chan.read_line_blocking ic) with e -> Error e)
    | Async -> (
        match poll ic with
        | Some r -> r
        | None -> (
            let ctl = Sched.current_ctl () in
            (* a cancel or kill discontinues this handler's suspension;
               pass it on to the reading thread *)
            try Sched.suspend ~wake (park ctl ic) with e -> Error e))
  in
  let rec io f () =
    Effect.Deep.try_with f ()
      {
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | In_line ic ->
                Some (fun (k : (c, _) Effect.Deep.continuation) -> deliver k (read ic))
            | Out_str (oc, s) ->
                Some
                  (fun (k : (c, _) Effect.Deep.continuation) ->
                    deliver k (try Ok (Chan.write_string oc s) with e -> Error e))
            | Sched.Fork f' ->
                Some
                  (fun (k : (c, _) Effect.Deep.continuation) ->
                    Sched.fork (io f');
                    Effect.Deep.continue k ())
            | Sched.Fork_cancellable f' ->
                Some
                  (fun (k : (c, _) Effect.Deep.continuation) ->
                    Effect.Deep.continue k (Sched.fork_cancellable (io f')))
            | _ -> None);
      }
  in
  (* Every thread is parked: step virtual time until a read completes
     (the do_reads of §3.1) or a timer callback schedules work (e.g. a
     timeout firing a cancel); the scheduler calls back while its queue
     stays empty. *)
  let idle () =
    let readable p = Chan.readable p.ic in
    match !pending with
    | [] -> false
    | waiting ->
        if not (List.exists readable waiting || Evloop.advance_once loop) then
          failwith "Aio: all threads blocked and no input will ever arrive";
        let ready, still = List.partition readable !pending in
        pending := still;
        observe_pending ();
        List.iter (fun p -> p.resume (Option.get (poll p.ic))) ready;
        true
  in
  Sched.run ?chaos ~clock:(fun () -> Evloop.now loop) ~idle (io main)

let run_sync ?chaos loop main = run Sync ?chaos loop main

let run_async ?chaos loop main = run Async ?chaos loop main

let timeout loop ~delay f =
  let state = ref (`Running : timeout_status) in
  let cancel =
    Sched.fork_cancellable (fun () ->
        f ();
        state := `Done)
  in
  Evloop.after loop ~delay (fun () ->
      if !state = `Running then begin
        state := `Cancelled;
        cancel ()
      end);
  fun () -> !state

(* The §3.2 example, structurally verbatim: defensive cleanup on normal
   end of input, and on any other exception — including Cancelled, which
   is how a timed-out copy releases its channels. close_* are
   idempotent. *)
let copy ic oc =
  let rec loop () =
    output_string oc (input_line ic ^ "\n");
    loop ()
  in
  try loop () with
  | End_of_file ->
      Chan.close_in ic;
      Chan.close_out oc
  | e ->
      Chan.close_in ic;
      Chan.close_out oc;
      raise e
