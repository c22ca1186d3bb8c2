module Micro = Retrofit_micro
module H = Retrofit_harness

type generator_result = {
  depth : int;
  cps_ms : float;
  effect_x : float;
  monad_x : float;
}

let generators ?(quick = false) () =
  let depth = if quick then 12 else 18 in
  let runs = if quick then 1 else 5 in
  let expected = Micro.Genbench.expected_sum ~depth in
  let check name v =
    if v <> expected then failwith (Printf.sprintf "generator %s: bad sum" name)
  in
  check "cps" (Micro.Genbench.cps_sum ~depth);
  check "effect" (Micro.Genbench.effect_sum ~depth);
  check "monad" (Micro.Genbench.monad_sum ~depth);
  let t_cps = H.Bench.median_ns ~runs (fun () -> Micro.Genbench.cps_sum ~depth) in
  let t_eff = H.Bench.median_ns ~runs (fun () -> Micro.Genbench.effect_sum ~depth) in
  let t_mon = H.Bench.median_ns ~runs (fun () -> Micro.Genbench.monad_sum ~depth) in
  { depth; cps_ms = t_cps /. 1e6; effect_x = t_eff /. t_cps; monad_x = t_mon /. t_cps }

type chameneos_result = {
  meetings : int;
  effects_ms : float;
  monad_x : float;
  lwt_x : float;
}

let chameneos ?(quick = false) () =
  let meetings = if quick then 2_000 else 200_000 in
  let runs = if quick then 1 else 5 in
  let check name total =
    if total <> 2 * meetings then
      failwith (Printf.sprintf "chameneos %s: %d meetings counted" name total)
  in
  check "effects" (Micro.Chameneos.run_effects ~meetings);
  check "monad" (Micro.Chameneos.run_monad ~meetings);
  check "lwt" (Micro.Chameneos.run_lwt ~meetings);
  let t_eff = H.Bench.median_ns ~runs (fun () -> Micro.Chameneos.run_effects ~meetings) in
  let t_mon = H.Bench.median_ns ~runs (fun () -> Micro.Chameneos.run_monad ~meetings) in
  let t_lwt = H.Bench.median_ns ~runs (fun () -> Micro.Chameneos.run_lwt ~meetings) in
  { meetings; effects_ms = t_eff /. 1e6; monad_x = t_mon /. t_eff; lwt_x = t_lwt /. t_eff }

type finaliser_result = { generator_x : float; roundtrip_x : float }

let finalisers ?(quick = false) () =
  let depth = if quick then 10 else 15 in
  let iters = if quick then 10_000 else 200_000 in
  let runs = if quick then 1 else 3 in
  (* Finalisers registered by earlier work (a previous finalised run,
     or anything before this experiment) run at some later allocation,
     whichever measurement that falls in.  A full major cycle first runs
     them, so each measurement times only its own work. *)
  let timed f =
    Gc.full_major ();
    H.Bench.median_ns ~runs f
  in
  let t_plain = timed (fun () -> Micro.Genbench.effect_sum ~depth) in
  let t_fin = timed (fun () -> Micro.Finaliser.effect_sum_finalised ~depth) in
  let t_rt_plain = timed (fun () -> Micro.Finaliser.roundtrip_plain iters) in
  let t_rt_fin = timed (fun () -> Micro.Finaliser.roundtrip_finalised iters) in
  { generator_x = t_fin /. t_plain; roundtrip_x = t_rt_fin /. t_rt_plain }

let report_generators ?quick () =
  let r = generators ?quick () in
  Printf.sprintf
    "Generators (§6.3.1): complete binary tree of depth %d\n\
     (paper, depth 25: effect 2.76x over cps, monad 8.69x over cps)\n\n%s"
    r.depth
    (Retrofit_util.Table.render_kv
       [
         ("cps (hand-defunctionalised)", Printf.sprintf "%.2f ms (1.00x)" r.cps_ms);
         ("effect (generic, fibers)", Printf.sprintf "%.2fx" r.effect_x);
         ("monad (heap continuations)", Printf.sprintf "%.2fx" r.monad_x);
       ])

let report_chameneos ?quick () =
  let r = chameneos ?quick () in
  Printf.sprintf
    "Chameneos (§6.3.2): %d meetings, MVar synchronisation\n\
     (paper: monad 1.67x, lwt 4.29x over effects)\n\n%s"
    r.meetings
    (Retrofit_util.Table.render_kv
       [
         ("effects", Printf.sprintf "%.2f ms (1.00x)" r.effects_ms);
         ("monad", Printf.sprintf "%.2fx" r.monad_x);
         ("lwt", Printf.sprintf "%.2fx" r.lwt_x);
       ])

let report_finalisers ?quick () =
  let r = finalisers ?quick () in
  Printf.sprintf
    "Finalised continuations (§6.3.3)\n\
     (paper: generator 4.1x, chameneos 2.1x slower with a finaliser per\n\
     continuation — hence not attached by default)\n\n%s"
    (Retrofit_util.Table.render_kv
       [
         ("generator, finalised / plain", Printf.sprintf "%.2fx" r.generator_x);
         ("handler roundtrip, finalised / plain", Printf.sprintf "%.2fx" r.roundtrip_x);
       ])
