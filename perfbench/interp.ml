(* The interp-compute and interp-effects workloads: one job is one
   [Machine.run] of a compiled program. *)

module F = Retrofit_fiber
module Counter = Retrofit_util.Counter

(* Plain-OCaml references for the program results. *)
let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

let rec ack m n =
  if m = 0 then n + 1 else if n = 0 then ack (m - 1) 1 else ack (m - 1) (ack m (n - 1))

let rec tak x y z =
  if y < x then tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y) else z

let rec motzkin n =
  if n < 2 then 1
  else
    let s = ref 0 in
    for i = 0 to n - 2 do
      s := !s + (motzkin i * motzkin (n - 2 - i))
    done;
    motzkin (n - 1) + !s

let rec sudan n x y =
  if n = 0 then x + y
  else if y = 0 then x
  else
    let s = sudan n x (y - 1) in
    sudan (n - 1) s (s + y)

let queens n =
  let rec place row cols d1 d2 =
    if row = n then 1
    else
      List.fold_left
        (fun acc c ->
          if List.mem c cols || List.mem (row + c) d1 || List.mem (row - c) d2 then acc
          else acc + place (row + 1) (c :: cols) ((row + c) :: d1) ((row - c) :: d2))
        0
        (List.init n Fun.id)
  in
  place 0 [] [] []

(* A program family: its name, the arguments it runs at, and for each
   argument the program and its expected result.  [Repeat] loops
   evaluate to 0. *)
type family = {
  fam : string;
  args : int list;
  program : int -> F.Ir.program;
  expect : int -> int;
}

let compute_families =
  [
    { fam = "fib"; args = [ 18 ]; program = (fun n -> F.Programs.fib ~n); expect = fib };
    {
      fam = "ack";
      args = [ 4 ];
      program = (fun n -> F.Programs.ack ~m:3 ~n);
      expect = ack 3;
    };
    {
      fam = "tak";
      args = [ 15 ];
      program = (fun x -> F.Programs.tak ~x ~y:10 ~z:5);
      expect = (fun x -> tak x 10 5);
    };
    {
      fam = "motzkin";
      args = [ 10 ];
      program = (fun n -> F.Programs.motzkin ~n);
      expect = motzkin;
    };
    {
      fam = "sudan";
      args = [ 2_800; 3_000; 3_200 ];
      program = (fun y -> F.Programs.sudan ~iters:1 ~n:1 ~x:3 ~y ());
      expect = (fun y -> sudan 1 3 y);
    };
    {
      fam = "exnval";
      args = [ 9_000; 10_000; 11_000 ];
      program = (fun iters -> F.Programs.exnval ~iters);
      expect = (fun _ -> 0);
    };
    {
      fam = "exnraise";
      args = [ 5_000; 5_500; 6_000 ];
      program = (fun iters -> F.Programs.exnraise ~iters);
      expect = (fun _ -> 0);
    };
    {
      fam = "extcall";
      args = [ 10_000; 11_000; 12_000 ];
      program = (fun iters -> F.Programs.extcall ~iters);
      expect = (fun _ -> 0);
    };
  ]

let effect_families =
  [
    {
      fam = "effect_roundtrip";
      args = [ 2_200; 2_500; 2_800 ];
      program = (fun iters -> F.Programs.effect_roundtrip ~iters);
      expect = (fun _ -> 0);
    };
  ]
  @ List.map
      (fun depth ->
        {
          fam = Printf.sprintf "effect_depth%d" depth;
          args = List.map (fun k -> k * 3_000 / (depth + 1) / 10) [ 9; 10; 11 ];
          program = (fun iters -> F.Programs.effect_depth ~depth ~iters);
          expect = (fun _ -> 0);
        })
      [ 2; 8; 32 ]
  @ [
      {
        fam = "callback";
        args = [ 7_000; 8_000; 9_000 ];
        program = (fun iters -> F.Programs.callback ~iters);
        expect = (fun _ -> 0);
      };
      {
        fam = "deep_recursion";
        args = [ 8_000; 9_000; 10_000 ];
        program = (fun depth -> F.Programs.deep_recursion ~depth);
        expect = Fun.id;
      };
      {
        fam = "nqueens";
        args = [ 6 ];
        program = (fun n -> F.Programs.nqueens ~n);
        expect = queens;
      };
    ]

let multishot = F.Config.with_multishot true F.Config.mc

(* Which configurations each family runs under, with a short name. *)
let configs_of ~effects fam =
  if not effects then [ ("stock", F.Config.stock); ("mc", F.Config.mc) ]
  else if fam = "nqueens" then
    [
      ("ms", multishot);
      ("ms-cow", F.Config.with_policy F.Stack_policy.segmented_cow multishot);
    ]
  else [ ("mc", F.Config.mc) ]

let label fam arg cname = Printf.sprintf "%s(%d)@%s" fam arg cname

(* The counters reported as exact per-layer counts. *)
let counted =
  [
    "ops"; "instructions"; "perform"; "reperform"; "switch"; "stack_grow";
    "words_copied"; "cont_copy"; "callback"; "eff_tbl_probe"; "stack_cache_hit";
    "stack_cache_lookup";
  ]

let check ~lbl ~expect (outcome, counters) =
  let counts = List.map (fun c -> ("fiber." ^ c, Counter.get counters c)) counted in
  let ops = Counter.get counters "ops" in
  let instr = Counter.get counters "instructions" in
  let mismatch =
    match outcome with
    | F.Machine.Done v when v = expect -> (
        match List.assoc_opt lbl Refs.interp with
        | None -> Some "no recorded ops/instructions reference"
        | Some (rops, rinstr) when rops = ops && rinstr = instr -> None
        | Some (rops, rinstr) ->
            Some
              (Printf.sprintf "ops/instructions %d/%d, reference %d/%d" ops instr
                 rops rinstr))
    | F.Machine.Done v -> Some (Printf.sprintf "result %d, reference %d" v expect)
    | F.Machine.Uncaught (l, v) -> Some (Printf.sprintf "uncaught %s %d" l v)
    | F.Machine.Fatal m -> Some ("fatal: " ^ m)
  in
  match mismatch with
  | None -> Wl.ok ~counts ops
  | Some e -> Wl.fail ~counts ops "%s: %s" lbl e

let job ?spans fam arg (cname, config) =
  let lbl = label fam.fam arg cname in
  let program = fam.program arg in
  let compiled =
    match spans with
    | None -> F.Compile.compile program
    | Some sp ->
        Spans.span sp ~cat:"fiber.compile" ~name:lbl (fun () -> F.Compile.compile program)
  in
  let expect = fam.expect arg in
  let exec () = F.Machine.run ~cfuns:F.Programs.standard_cfuns config compiled in
  {
    Wl.label = lbl;
    run = (fun () -> check ~lbl ~expect (exec ()));
    traced =
      (fun sp ->
        Spans.span sp ~cat:"fiber.machine" ~name:lbl (fun () ->
            let r = check ~lbl ~expect (exec ()) in
            Spans.args sp
              [
                ("ops", List.assoc "fiber.ops" r.Wl.counts);
                ("perform", List.assoc "fiber.perform" r.Wl.counts);
              ];
            r));
  }

let families ~effects = if effects then effect_families else compute_families

(* Every (family, argument, configuration) the workload runs. *)
let all_labels ~effects =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun a -> List.map (fun (c, cfg) -> (f, a, c, cfg)) (configs_of ~effects f.fam))
        f.args)
    (families ~effects)

(* Three jobs per (family, configuration): one at each argument, or
   three at a family's only argument.  Every seed runs the same jobs,
   so a seed cannot move the figures by drawing cheaper or dearer ones;
   the seed draws their order.  The warm-up runs every family once per
   configuration at its first argument. *)
let setup ~effects ?spans ~seed () =
  let st = Random.State.make [| seed; (if effects then 2 else 1) |] in
  let fams = families ~effects in
  List.iter
    (fun f ->
      List.iter (fun c -> ignore ((job f (List.hd f.args) c).Wl.run ())) (configs_of ~effects f.fam))
    fams;
  let jobs =
    List.concat_map
      (fun f ->
        List.concat_map
          (fun c ->
            List.init 3 (fun k -> job ?spans f (List.nth f.args (k mod List.length f.args)) c))
          (configs_of ~effects f.fam))
      fams
  in
  Wl.repeat (Wl.shuffle st (Array.of_list jobs))

let layer_metrics ~effects ~counts spans =
  let c k = float_of_int (Option.value ~default:0 (List.assoc_opt k counts)) in
  let machine = List.filter (fun s -> s.Spans.cat = "fiber.machine") spans in
  let compile = List.filter (fun s -> s.Spans.cat = "fiber.compile") spans in
  let per_op fam =
    let ss =
      List.filter (fun s -> String.starts_with ~prefix:(fam ^ "(") s.Spans.name) machine
    in
    ( "fiber.machine.ns_per_op." ^ fam,
      Wl.ratio
        (float_of_int (Spans.sum Spans.dur ss))
        (float_of_int (Spans.sum (fun s -> Spans.arg s "ops") ss)) )
  in
  (* The effect path: §6.3's roundtrip, one perform per iteration. *)
  let performing =
    List.filter (fun s -> String.starts_with ~prefix:"effect_roundtrip(" s.Spans.name) machine
  in
  [
    ( "fiber.compile.us",
      Wl.ratio (float_of_int (Spans.sum Spans.dur compile) /. 1e3)
        (float_of_int (List.length compile)) );
    ( "fiber.machine.ns_per_perform",
      Wl.ratio
        (float_of_int (Spans.sum Spans.dur performing))
        (float_of_int (Spans.sum (fun s -> Spans.arg s "perform") performing)) );
  ]
  @ List.map (fun f -> per_op f.fam) (families ~effects)
  @ List.map
      (fun k -> ("fiber." ^ k, c ("fiber." ^ k)))
      [
        "ops"; "instructions"; "perform"; "reperform"; "switch"; "stack_grow";
        "words_copied"; "cont_copy"; "callback";
      ]
  @ [
      ( "fiber.eff_tbl_probe_per_perform",
        Wl.ratio (c "fiber.eff_tbl_probe") (c "fiber.perform") );
      ( "fiber.stack_cache_hit_ratio",
        Wl.ratio (c "fiber.stack_cache_hit") (c "fiber.stack_cache_lookup") );
    ]

let workload ~effects =
  {
    Wl.name = (if effects then "interp-effects" else "interp-compute");
    work_unit = "ops";
    setup = setup ~effects;
    layer_metrics = layer_metrics ~effects;
  }
