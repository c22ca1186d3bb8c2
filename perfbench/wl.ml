(* What every workload gives the run loop in bench.ml. *)

type result = {
  work : int;
      (** units of the workload's throughput: machine ops, checked
          programs or simulated requests *)
  counts : (string * int) list;
      (** deterministic counts; every run of a job must repeat them *)
  error : string option;  (** a mismatch against a reference *)
}

type job = {
  label : string;
  run : unit -> result;
  traced : Spans.t -> result;  (** the same work, with layer spans *)
}

(* The jobs of one run: job [i] for every [i >= 0].  Jobs [i] and
   [i + cycle] are the same job, a run ends at the end of a cycle, and
   throughput is taken per cycle.  Counts are reported summed over the
   first [counted] jobs. *)
type plan = { cycle : int; counted : int; job : int -> job }

let repeat jobs =
  let n = Array.length jobs in
  { cycle = n; counted = n; job = (fun i -> jobs.(i mod n)) }

type t = {
  name : string;
  work_unit : string;
  setup : ?spans:Spans.t -> seed:int -> unit -> plan;
      (** generates the inputs, compiles and warms up *)
  layer_metrics :
    counts:(string * int) list -> Spans.span list -> (string * float) list;
      (** per-layer metrics from the counts summed over the counted
          jobs and the traced pass's spans *)
}

let ok ?(counts = []) work = { work; counts; error = None }

let fail ?(counts = []) work fmt =
  Printf.ksprintf (fun e -> { work; counts; error = Some e }) fmt

(* A deterministic shuffle from the workload seed. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let ratio a b = if b = 0. then 0. else a /. b
