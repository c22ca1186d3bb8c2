(* In-memory span recorder for the traced pass.

   A span is recorded around each call the benchmark makes into a
   layer's public functions.  Spans nest: the innermost open span is the
   parent of the next one.  Nothing is written until the run ends. *)

type span = {
  id : int;
  cat : string;  (** the layer, e.g. "fiber.machine" *)
  name : string;
  start : int;  (** monotonic ns *)
  mutable stop : int;
  parent : int;  (** -1 at top level *)
  job : int;  (** job index within the cycle, -1 during set-up *)
  cycle : int;
  mutable args : (string * int) list;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable open_ : span list;
  mutable next : int;
  mutable job : int;
  mutable cycle : int;
}

let now_ns () = Int64.to_int (Retrofit_harness.Clock.now_ns ())

let create () = { spans = []; open_ = []; next = 0; job = -1; cycle = 0 }

let set_job t ~cycle ~job =
  t.cycle <- cycle;
  t.job <- job

let span t ~cat ~name f =
  let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
  let s =
    {
      id = t.next;
      cat;
      name;
      start = now_ns ();
      stop = 0;
      parent;
      job = t.job;
      cycle = t.cycle;
      args = [];
    }
  in
  t.next <- t.next + 1;
  t.open_ <- s :: t.open_;
  let finish () =
    s.stop <- now_ns ();
    t.open_ <- List.tl t.open_;
    t.spans <- s :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Attach integer arguments to the innermost open span. *)
let args t kvs =
  match t.open_ with s :: _ -> s.args <- s.args @ kvs | [] -> ()

let all t = List.rev t.spans

let dur s = s.stop - s.start

(* Self time: the span's duration minus the time its direct children
   cover (children never overlap on one thread). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, dur s - Option.value ~default:0 (Hashtbl.find_opt child s.id)))
    spans

let sum f spans = List.fold_left (fun acc s -> acc + f s) 0 spans

let arg s key = Option.value ~default:0 (List.assoc_opt key s.args)

(* Chrome trace_event JSON: one complete ("X") event per span, times in
   ns relative to the first span, the parent and job as integer args. *)
let to_chrome spans =
  let t0 = List.fold_left (fun acc s -> min acc s.start) max_int spans in
  let b = Buffer.create (64 * (List.length spans + 1)) in
  Buffer.add_string b {|{"displayTimeUnit":"ns","traceEvents":[|};
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        {|{"name":"%s","cat":"%s","ph":"X","ts":%d,"dur":%d,"pid":1,"tid":1,"args":{"span":%d,"parent":%d,"job":%d,"cycle":%d|}
        (String.escaped s.name) s.cat (s.start - t0) (dur s) s.id s.parent s.job
        s.cycle;
      List.iter (fun (k, v) -> Printf.bprintf b {|,"%s":%d|} k v) s.args;
      Buffer.add_string b "}}")
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b
