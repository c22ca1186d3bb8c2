(* The websim workload: Fig 6 cells of the simulated web server.  One
   job is one cell: an open-loop wrk2-style load at a fixed offered
   rate (plain, or with faults under the resilient engine), or one
   supervised run.  Latencies inside a cell are timed from each
   request's scheduled arrival; the host runs the cells back to back. *)

module H = Retrofit_httpsim

(* Below, at and above the ~30k rps plateau.  Each cell simulates
   about 3000 requests, so cells cost the host about the same. *)
let rates = [ 15_000; 30_000; 45_000 ]
let duration_ms rate = 3_000_000 / rate
let fault_rate = 30_000
let connections = 1000

(* Every cell runs under each of these simulation seeds once a cycle;
   refs.ml holds every cell's outcome under each. *)
let sim_seeds = [ 1; 2; 3; 4 ]

type model = {
  m : H.Server.model;
  process : string -> string;
  process_with : ?pre:(unit -> unit) -> string -> string;
}

let models =
  [
    { m = H.Server.mc; process = H.Server_effects.process_raw;
      process_with = H.Server_effects.process_raw_with };
    { m = H.Server.lwt; process = H.Server_monad.process_raw;
      process_with = H.Server_monad.process_raw_with };
    { m = H.Server.go; process = H.Server_go.process_raw;
      process_with = H.Server_go.process_raw_with };
  ]

type cell = Plain of int | Faults | Supervised

let cells = List.map (fun r -> Plain r) rates @ [ Faults; Supervised ]

let cell_label md cell =
  let n = md.m.H.Server.name in
  match cell with
  | Plain r -> Printf.sprintf "plain-%s-%d" n r
  | Faults -> Printf.sprintf "faults-%s-%d" n fault_rate
  | Supervised -> Printf.sprintf "supervised-%s" n

let outcome_line (o : H.Loadgen.outcome) =
  Printf.sprintf
    "%s offered=%d achieved=%h goodput=%h total=%d completed=%d errors=%d timeouts=%d \
     retries=%d shed=%d malformed=%d server_errors=%d injected=%d gc=%d mean=%h p50=%d \
     p90=%d p99=%d p999=%d max=%d"
    o.model_name o.offered_rps o.achieved_rps o.goodput_rps o.total_requests o.completed
    o.errors o.timeouts o.retries o.shed o.malformed o.server_errors o.faults.injected
    o.gc_pauses o.mean_ns o.p50_ns o.p90_ns o.p99_ns o.p999_ns o.max_ns

type cell_result = { requests : int; line : string; counts : (string * int) list }

(* One cell.  [wrap] decorates the request handler; the traced pass
   times it there. *)
let run_cell ?(wrap = fun p -> p) md cell sim_seed =
  let name = md.m.H.Server.name in
  let loadgen ?faults ?resilience rate_rps =
    H.Loadgen.run ~seed:sim_seed ~connections ?faults ?resilience ~model:md.m
      ~process:(wrap md.process) ~rate_rps ~duration_ms:(duration_ms rate_rps) ()
  in
  let of_outcome extra (o : H.Loadgen.outcome) =
    {
      requests = o.total_requests;
      line = outcome_line o;
      counts = ("httpsim.sim.completed", o.completed) :: extra o;
    }
  in
  match cell with
  | Plain rate ->
      of_outcome
        (fun o ->
          if rate = 45_000 then
            [ ("httpsim.sim.achieved_rps." ^ name, int_of_float o.achieved_rps) ]
          else if rate = 30_000 then [ ("httpsim.sim.p999_ns." ^ name, o.p999_ns) ]
          else [])
        (loadgen rate)
  | Faults ->
      of_outcome
        (fun _ -> [])
        (loadgen ~faults:H.Faults.default ~resilience:H.Loadgen.default_resilience
           fault_rate)
  | Supervised ->
      let s =
        H.Supervised.run ~model:md.m ~process:md.process_with
          { (H.Supervised.default_config ~seed:sim_seed) with connections = 500 }
      in
      {
        requests = s.total;
        line = H.Supervised.summary_to_string s;
        counts = [ ("httpsim.sim.completed", s.completed) ];
      }

let ref_key md cell sim_seed = Printf.sprintf "%s#%d" (cell_label md cell) sim_seed

let check md cell sim_seed r =
  let key = ref_key md cell sim_seed in
  let counts = ("sim_requests", r.requests) :: r.counts in
  match List.assoc_opt key Refs.websim with
  | Some line when line = r.line -> Wl.ok ~counts r.requests
  | Some line -> Wl.fail ~counts r.requests "%s: got %S, reference %S" key r.line line
  | None -> Wl.fail ~counts r.requests "%s: no recorded reference" key

let traced md cell sim_seed sp =
  let label = cell_label md cell in
  match cell with
  | Supervised ->
      Spans.span sp ~cat:"httpsim.supervised" ~name:label (fun () ->
          let r = run_cell md cell sim_seed in
          Spans.args sp [ ("requests", r.requests) ];
          check md cell sim_seed r)
  | Plain _ | Faults ->
      let rate = match cell with Plain r -> r | _ -> fault_rate in
      (* Loadgen generates its arrivals with Netsim internally; the same
         call is timed here on its own, outside the job's work. *)
      Spans.span sp ~cat:"calibration" ~name:"netsim" (fun () ->
          Spans.span sp ~cat:"httpsim.netsim" ~name:"poisson_rate" (fun () ->
              let ev =
                H.Netsim.poisson_rate
                  ~rng:(Retrofit_util.Rng.create sim_seed)
                  ~connections ~rate_rps:rate ~duration_ms:(duration_ms rate) ~target:"/" ()
              in
              Spans.args sp [ ("events", List.length ev) ]));
      let wrap process raw =
        Spans.span sp ~cat:"httpsim.server" ~name:md.m.H.Server.name (fun () ->
            process raw)
      in
      Spans.span sp ~cat:"httpsim.loadgen" ~name:label (fun () ->
          let r = run_cell ~wrap md cell sim_seed in
          Spans.args sp [ ("requests", r.requests) ];
          check md cell sim_seed r)

(* Every cell under every simulation seed, in an order the workload
   seed draws.  Every seed runs the same jobs, so a seed cannot move
   the figures by drawing cheaper or dearer cells.  The warm-up runs a
   plain and a supervised cell per model under a simulation seed no
   job uses. *)
let setup ?spans:_ ~seed () =
  List.iter
    (fun md ->
      ignore (run_cell md (Plain fault_rate) 0);
      ignore (run_cell md Supervised 0))
    models;
  let st = Random.State.make [| seed; 3 |] in
  let jobs =
    List.concat_map
      (fun md ->
        List.concat_map
          (fun cell ->
            List.map
              (fun sim_seed ->
                {
                  Wl.label = ref_key md cell sim_seed;
                  run = (fun () -> check md cell sim_seed (run_cell md cell sim_seed));
                  traced = traced md cell sim_seed;
                })
              sim_seeds)
          cells)
      models
  in
  Wl.repeat (Wl.shuffle st (Array.of_list jobs))

let layer_metrics ~counts spans =
  let c k = float_of_int (Option.value ~default:0 (List.assoc_opt k counts)) in
  let of_cat cat = List.filter (fun s -> s.Spans.cat = cat) spans in
  let time l = float_of_int (Spans.sum Spans.dur l) in
  let args k l = float_of_int (Spans.sum (fun s -> Spans.arg s k) l) in
  let netsim = of_cat "httpsim.netsim" and loadgen = of_cat "httpsim.loadgen" in
  let server = of_cat "httpsim.server" and sup = of_cat "httpsim.supervised" in
  let requests = args "requests" loadgen in
  [
    ("httpsim.netsim.ns_per_event", Wl.ratio (time netsim) (args "events" netsim));
  ]
  @ List.map
      (fun md ->
        let n = md.m.H.Server.name in
        let ss = List.filter (fun s -> s.Spans.name = n) server in
        ("httpsim.server.us_per_request." ^ n, Wl.ratio (time ss /. 1e3) (float (List.length ss))))
      models
  @ [
      ( "httpsim.loadgen.us_per_request",
        Wl.ratio ((time loadgen -. time server -. time netsim) /. 1e3) requests );
      ("httpsim.supervised.us_per_request", Wl.ratio (time sup /. 1e3) (args "requests" sup));
    ]
  @ List.concat_map
      (fun md ->
        let n = md.m.H.Server.name in
        let mean k = c k /. float_of_int (List.length sim_seeds) in
        [
          ("httpsim.sim.achieved_rps." ^ n, mean ("httpsim.sim.achieved_rps." ^ n));
          ("httpsim.sim.p999_ns." ^ n, mean ("httpsim.sim.p999_ns." ^ n));
        ])
      models
  @ [ ("httpsim.sim.completed", c "httpsim.sim.completed") ]

let workload = { Wl.name = "websim"; work_unit = "sim_requests"; setup; layer_metrics }
