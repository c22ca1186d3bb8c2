module H = Retrofit_httpsim

let test name f = Alcotest.test_case name `Quick f

(* ---------------- Http ---------------- *)

let simple_get = "GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"

let parse_get () =
  match H.Http.parse_request simple_get with
  | Ok (req, consumed) ->
      Alcotest.(check string) "method" "GET" (H.Http.meth_to_string req.H.Http.meth);
      Alcotest.(check string) "target" "/index.html" req.target;
      Alcotest.(check string) "version" "HTTP/1.1" req.version;
      Alcotest.(check (option string)) "host" (Some "x") (H.Http.header req "Host");
      Alcotest.(check int) "consumed" (String.length simple_get) consumed
  | Error e -> Alcotest.fail e

let parse_post_body () =
  let raw = "POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello" in
  match H.Http.parse_request raw with
  | Ok (req, consumed) ->
      Alcotest.(check string) "body" "hello" req.H.Http.body;
      Alcotest.(check int) "consumed" (String.length raw) consumed
  | Error e -> Alcotest.fail e

let parse_pipelined () =
  let raw = simple_get ^ "GET /two HTTP/1.1\r\n\r\n" in
  match H.Http.parse_request raw with
  | Ok (_, consumed) -> (
      match H.Http.parse_request (String.sub raw consumed (String.length raw - consumed)) with
      | Ok (req2, _) -> Alcotest.(check string) "second" "/two" req2.H.Http.target
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

let parse_incomplete () =
  let incomplete s =
    match H.Http.parse_request s with
    | Error e ->
        Alcotest.(check bool) "mentions incomplete" true
          (String.length e >= 10 && String.sub e 0 10 = "incomplete")
    | Ok _ -> Alcotest.fail ("parsed " ^ s)
  in
  incomplete "GET / HTTP/1.1";
  incomplete "GET / HTTP/1.1\r\nHost: x\r\n";
  incomplete "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"

let parse_malformed () =
  let bad s =
    match H.Http.parse_request s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "no version" true (bad "GET /\r\n\r\n");
  Alcotest.(check bool) "bad version" true (bad "GET / HTTP/3.0\r\n\r\n");
  Alcotest.(check bool) "bad header" true (bad "GET / HTTP/1.1\r\nnocolon\r\n\r\n");
  Alcotest.(check bool) "bad content length" true
    (bad "GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n")

let keep_alive_rules () =
  let req ?(version = "HTTP/1.1") ?(headers = []) () =
    { H.Http.meth = H.Http.GET; target = "/"; version; headers; body = "" }
  in
  Alcotest.(check bool) "1.1 default" true (H.Http.keep_alive (req ()));
  Alcotest.(check bool) "1.1 close" false
    (H.Http.keep_alive (req ~headers:[ ("connection", "close") ] ()));
  Alcotest.(check bool) "1.0 default" false (H.Http.keep_alive (req ~version:"HTTP/1.0" ()));
  Alcotest.(check bool) "1.0 keep-alive" true
    (H.Http.keep_alive (req ~version:"HTTP/1.0" ~headers:[ ("connection", "keep-alive") ] ()))

let response_roundtrip () =
  let resp = H.Http.ok "hello world" in
  let raw = H.Http.format_response resp in
  match H.Http.parse_response raw with
  | Ok (parsed, consumed) ->
      Alcotest.(check int) "status" 200 parsed.H.Http.status;
      Alcotest.(check string) "body" "hello world" parsed.resp_body;
      Alcotest.(check int) "consumed" (String.length raw) consumed
  | Error e -> Alcotest.fail e

let request_roundtrip () =
  let raw = H.Netsim.request_for ~target:"/page" ~conn_id:3 in
  match H.Http.parse_request raw with
  | Ok (req, _) ->
      Alcotest.(check string) "target" "/page" req.H.Http.target;
      Alcotest.(check (option string)) "conn header" (Some "3")
        (H.Http.header req "x-conn")
  | Error e -> Alcotest.fail e

let reason_phrases () =
  Alcotest.(check string) "200" "OK" (H.Http.reason_phrase 200);
  Alcotest.(check string) "404" "Not Found" (H.Http.reason_phrase 404);
  Alcotest.(check string) "unknown" "Status 599" (H.Http.reason_phrase 599)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"format/parse request roundtrip" ~count:100
    QCheck.(
      pair
        (string_gen_of_size (QCheck.Gen.int_range 1 20) QCheck.Gen.(char_range 'a' 'z'))
        (string_gen_of_size (QCheck.Gen.int_range 0 30) QCheck.Gen.(char_range 'a' 'z')))
    (fun (target, body) ->
      let req =
        {
          H.Http.meth = H.Http.POST;
          target = "/" ^ target;
          version = "HTTP/1.1";
          headers = [ ("host", "h") ];
          body;
        }
      in
      match H.Http.parse_request (H.Http.format_request req) with
      | Ok (parsed, _) ->
          parsed.H.Http.target = req.H.Http.target && parsed.body = body
      | Error _ -> false)

(* ---------------- Netsim ---------------- *)

(* The engine serves on-time first attempts straight from this list,
   so it must come in time order for any seed, rate and duration. *)
let prop_poisson_ordered =
  QCheck.Test.make ~name:"poisson arrivals in time order" ~count:100
    QCheck.(triple small_nat (int_range 1 100_000) (int_range 0 50))
    (fun (seed, rate_rps, duration_ms) ->
      let events =
        H.Netsim.poisson_rate ~rng:(Retrofit_util.Rng.create seed) ~connections:3
          ~rate_rps ~duration_ms ~target:"/" ()
      in
      let rec ordered = function
        | (x : H.Netsim.event) :: (y :: _ as rest) ->
            x.arrival_ns <= y.H.Netsim.arrival_ns && ordered rest
        | _ -> true
      in
      ordered events)

let netsim_poisson () =
  let rng = Retrofit_util.Rng.create 2 in
  let events =
    H.Netsim.poisson_rate ~rng ~connections:10 ~rate_rps:10_000 ~duration_ms:200
      ~target:"/" ()
  in
  let n = List.length events in
  (* expect about 2000 arrivals; allow generous slack *)
  Alcotest.(check bool) (Printf.sprintf "n=%d near 2000" n) true (n > 1600 && n < 2400);
  List.iter
    (fun (e : H.Netsim.event) ->
      Alcotest.(check bool) "in horizon" true
        (e.arrival_ns >= 0 && e.arrival_ns < 200_000_000))
    events

(* ---------------- Servers ---------------- *)

let servers_serve () =
  let raw = H.Netsim.request_for ~target:"/" ~conn_id:0 in
  List.iter
    (fun (model, process) ->
      match H.Http.parse_response (process raw) with
      | Ok (resp, _) ->
          Alcotest.(check int) (model.H.Server.name ^ " 200") 200 resp.H.Http.status;
          Alcotest.(check string)
            (model.H.Server.name ^ " body")
            H.Server.static_page resp.resp_body
      | Error e -> Alcotest.fail e)
    H.Experiment.servers

let servers_404_405 () =
  let process = H.Server_effects.process_raw in
  let raw = H.Netsim.request_for ~target:"/missing" ~conn_id:0 in
  (match H.Http.parse_response (process raw) with
  | Ok (resp, _) -> Alcotest.(check int) "404" 404 resp.H.Http.status
  | Error e -> Alcotest.fail e);
  let post = "POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n" in
  (match H.Http.parse_response (process post) with
  | Ok (resp, _) -> Alcotest.(check int) "405" 405 resp.H.Http.status
  | Error e -> Alcotest.fail e);
  match H.Http.parse_response (process "garbage\r\n\r\n") with
  | Ok (resp, _) -> Alcotest.(check int) "400" 400 resp.H.Http.status
  | Error e -> Alcotest.fail e

(* ---------------- Loadgen / Experiment ---------------- *)

let loadgen_sane () =
  let o =
    H.Loadgen.run ~model:H.Server.mc ~process:H.Server_effects.process_raw
      ~rate_rps:10_000 ~duration_ms:200 ()
  in
  Alcotest.(check int) "no errors" 0 o.H.Loadgen.errors;
  Alcotest.(check bool) "completed" true (o.completed > 1_000);
  Alcotest.(check bool) "p50 <= p99" true (o.p50_ns <= o.p99_ns);
  Alcotest.(check bool) "p99 <= p99.9" true (o.p99_ns <= o.p999_ns);
  Alcotest.(check bool) "achieved near offered" true
    (o.achieved_rps > 9_000. && o.achieved_rps < 11_000.)

let loadgen_deterministic () =
  let run () =
    H.Loadgen.run ~model:H.Server.mc ~process:H.Server_effects.process_raw
      ~rate_rps:5_000 ~duration_ms:100 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "p99 deterministic" a.H.Loadgen.p99_ns b.H.Loadgen.p99_ns;
  Alcotest.(check int) "completed" a.completed b.completed

let throughput_saturates () =
  List.iter
    (fun (model, process) ->
      let low =
        H.Loadgen.run ~model ~process ~rate_rps:10_000 ~duration_ms:300 ()
      in
      let over =
        H.Loadgen.run ~model ~process ~rate_rps:60_000 ~duration_ms:300 ()
      in
      Alcotest.(check bool)
        (model.H.Server.name ^ " keeps up at 10k")
        true
        (low.H.Loadgen.achieved_rps > 9_500.);
      Alcotest.(check bool)
        (model.H.Server.name ^ " saturates under 40k")
        true
        (over.H.Loadgen.achieved_rps < 40_000.))
    H.Experiment.servers

let mc_best_tail () =
  let outcomes = H.Experiment.fig6b ~rate_rps:20_000 ~duration_ms:1_000 () in
  let find name =
    List.find (fun (o : H.Loadgen.outcome) -> o.model_name = name) outcomes
  in
  let mc = find "mc" and lwt = find "lwt" in
  Alcotest.(check bool) "mc p99.9 <= lwt p99.9" true
    (mc.H.Loadgen.p999_ns <= lwt.H.Loadgen.p999_ns)

(* Regression: format_request used a case-sensitive lookup, so a caller
   header spelled "Content-Length" got a second, synthesised
   "content-length" — a duplicate on the wire. *)
let format_request_content_length_once () =
  let req =
    {
      H.Http.meth = H.Http.POST;
      target = "/";
      version = "HTTP/1.1";
      headers = [ ("Content-Length", "5") ];
      body = "hello";
    }
  in
  let raw = H.Http.format_request req in
  let count =
    String.split_on_char '\n' raw
    |> List.filter (fun line ->
           let line = String.lowercase_ascii line in
           String.length line >= 15 && String.sub line 0 15 = "content-length:")
    |> List.length
  in
  Alcotest.(check int) "exactly one content-length header" 1 count;
  match H.Http.parse_request raw with
  | Ok (parsed, _) -> Alcotest.(check string) "body intact" "hello" parsed.H.Http.body
  | Error e -> Alcotest.fail e

(* ---------------- Netsim determinism ---------------- *)

let netsim_poisson_properties () =
  let trace seed =
    let rng = Retrofit_util.Rng.create seed in
    H.Netsim.poisson_rate ~rng ~connections:7 ~rate_rps:5_000 ~duration_ms:100
      ~target:"/" ()
  in
  let a = trace 11 and a' = trace 11 and b = trace 12 in
  Alcotest.(check bool) "equal seeds give identical traces" true (a = a');
  Alcotest.(check bool) "different seeds give different traces" true (a <> b);
  let rec non_decreasing = function
    | (x : H.Netsim.event) :: (y :: _ as rest) ->
        x.arrival_ns <= y.H.Netsim.arrival_ns && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "arrivals non-decreasing" true (non_decreasing a);
  List.iter
    (fun (e : H.Netsim.event) ->
      Alcotest.(check bool) "conn_id in range" true (e.conn_id >= 0 && e.conn_id < 7))
    a

(* ---------------- Fault-shaped inputs never crash the parser -------- *)

let parse_truncation_total () =
  let full_req = "POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello" in
  for keep = 0 to String.length full_req - 1 do
    match H.Http.parse_request (String.sub full_req 0 keep) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "prefix %d parsed as a full request" keep)
    | exception e ->
        Alcotest.fail (Printf.sprintf "prefix %d raised %s" keep (Printexc.to_string e))
  done;
  let full_resp = H.Http.format_response (H.Http.ok "hello world") in
  for keep = 0 to String.length full_resp - 1 do
    match H.Http.parse_response (String.sub full_resp 0 keep) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "prefix %d parsed as a full response" keep)
    | exception e ->
        Alcotest.fail (Printf.sprintf "prefix %d raised %s" keep (Printexc.to_string e))
  done

let parse_garbage_headers () =
  let err s =
    match H.Http.parse_request s with
    | Error _ -> true
    | Ok _ -> false
    | exception _ -> false
  in
  Alcotest.(check bool) "header without colon" true
    (err "GET / HTTP/1.1\r\nno colon here\r\n\r\n");
  Alcotest.(check bool) "negative content-length" true
    (err "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\nhello");
  Alcotest.(check bool) "garbage content-length" true
    (err "POST / HTTP/1.1\r\nContent-Length: 5x\r\n\r\nhello");
  Alcotest.(check bool) "empty header name" true (err "GET / HTTP/1.1\r\n: v\r\n\r\n");
  Alcotest.(check bool) "response negative content-length" true
    (match H.Http.parse_response "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n" with
    | Error _ -> true
    | Ok _ | (exception _) -> false)

(* ---------------- Faults ---------------- *)

let faults_plan_deterministic () =
  let rng = Retrofit_util.Rng.create 3 in
  let events =
    H.Netsim.poisson_rate ~rng ~connections:10 ~rate_rps:20_000 ~duration_ms:100
      ~target:"/" ()
  in
  let p1 = H.Faults.plan ~seed:7 ~rates:H.Faults.default events in
  let p2 = H.Faults.plan ~seed:7 ~rates:H.Faults.default events in
  let p3 = H.Faults.plan ~seed:8 ~rates:H.Faults.default events in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check bool) "different seed, different plan" true (p1 <> p3);
  Alcotest.(check int) "length preserved" (List.length events) (List.length p1);
  Alcotest.(check bool) "default plan injects something" true
    (H.Faults.injected_count p1 > 0);
  let clean = H.Faults.plan ~seed:7 ~rates:H.Faults.none events in
  Alcotest.(check int) "zero rates inject nothing" 0 (H.Faults.injected_count clean);
  Alcotest.check_raises "negative scale rejected"
    (Invalid_argument "Faults.scale: negative factor") (fun () ->
      ignore (H.Faults.scale (-1.0) H.Faults.default))

let faults_damage_is_rejected_not_fatal () =
  let raw = H.Netsim.request_for ~target:"/" ~conn_id:0 in
  List.iter
    (fun (model, process) ->
      let check fault expect_status =
        let reply = process (H.Faults.damaged_raw raw fault) in
        match H.Http.parse_response reply with
        | Ok (resp, _) ->
            Alcotest.(check int)
              (Printf.sprintf "%s %s" model.H.Server.name
                 (H.Faults.fault_label fault))
              expect_status resp.H.Http.status
        | Error e -> Alcotest.fail e
      in
      (* Wire damage: 4xx.  Crash tag: the handler raises mid-request
         and the crash barrier converts it to a 500 — never an escape. *)
      check (H.Faults.Truncate 5) 400;
      check H.Faults.Backend_fail 500;
      (* A corrupted byte anywhere in the first 16 positions of the
         request line yields some non-200 rejection — never a crash. *)
      for i = 0 to min 15 (String.length raw - 1) do
        let reply = process (H.Faults.damaged_raw raw (H.Faults.Corrupt i)) in
        match H.Http.parse_response reply with
        | Ok (resp, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s corrupt@%d non-200 (got %d)" model.H.Server.name
                 i resp.H.Http.status)
              true (resp.H.Http.status <> 200)
        | Error e -> Alcotest.fail e
      done)
    H.Experiment.servers

(* ---------------- Loadgen engine ---------------- *)

(* Frozen pins: the zero-fault default path is the Fig 6 machinery and
   must stay bit-for-bit across refactors (same seed, same numbers). *)
let loadgen_frozen_counters () =
  let run model process =
    H.Loadgen.run ~model ~process ~rate_rps:10_000 ~duration_ms:300 ()
  in
  let check name (o : H.Loadgen.outcome) completed gc p50 p90 p99 p999 max_ns =
    Alcotest.(check int) (name ^ " completed") completed o.completed;
    Alcotest.(check int) (name ^ " errors") 0 o.errors;
    Alcotest.(check int) (name ^ " gc") gc o.gc_pauses;
    Alcotest.(check int) (name ^ " p50") p50 o.p50_ns;
    Alcotest.(check int) (name ^ " p90") p90 o.p90_ns;
    Alcotest.(check int) (name ^ " p99") p99 o.p99_ns;
    Alcotest.(check int) (name ^ " p999") p999 o.p999_ns;
    Alcotest.(check int) (name ^ " max") max_ns o.max_ns
  in
  check "mc"
    (run H.Server.mc H.Server_effects.process_raw)
    3045 0 34784 66176 107328 164608 170056;
  check "lwt"
    (run H.Server.lwt H.Server_monad.process_raw)
    3045 1 36320 70848 121984 482304 517389;
  check "go" (run H.Server.go H.Server_go.process_raw) 3045 0 35488 67840 109696
    169472 174436;
  let over =
    H.Loadgen.run ~model:H.Server.mc ~process:H.Server_effects.process_raw
      ~rate_rps:25_000 ~duration_ms:300 ()
  in
  Alcotest.(check int) "mc 25k completed" 7558 over.completed;
  Alcotest.(check int) "mc 25k p99" 405248 over.p99_ns

(* Every field of the no-option outcome, for each server below and far
   above the plateau; recorded before the zero-fault Fig 6 path was
   folded into the one engine. *)
let outcome_line (o : H.Loadgen.outcome) =
  let f = o.faults in
  Printf.sprintf
    "%s offered=%d achieved=%h goodput=%h total=%d completed=%d errors=%d \
     timeouts=%d retries=%d shed=%d malformed=%d server_errors=%d \
     faults=%d/%d/%d/%d/%d/%d gc=%d mean=%h p50=%d p90=%d p99=%d p999=%d max=%d"
    o.model_name o.offered_rps o.achieved_rps o.goodput_rps o.total_requests
    o.completed o.errors o.timeouts o.retries o.shed o.malformed o.server_errors
    f.H.Loadgen.injected f.to_malformed f.to_retried f.to_timeout f.to_server_error
    f.to_absorbed o.gc_pauses o.mean_ns o.p50_ns o.p90_ns o.p99_ns o.p999_ns o.max_ns

let loadgen_outcomes_pinned () =
  let expected =
    [
      "mc offered=10000 achieved=0x1.3b1ec5571c704p+13 goodput=0x1.3b1ec5571c704p+13 \
       total=2017 completed=2017 errors=0 timeouts=0 retries=0 shed=0 malformed=0 \
       server_errors=0 faults=0/0/0/0/0/0 gc=0 mean=0x1.4b0c2f36f4f53p+15 p50=35008 \
       p90=66560 p99=101760 p999=138880 max=150185";
      "lwt offered=10000 achieved=0x1.3b1e3f1ecec9cp+13 goodput=0x1.3b1e3f1ecec9cp+13 \
       total=2017 completed=2017 errors=0 timeouts=0 retries=0 shed=0 malformed=0 \
       server_errors=0 faults=0/0/0/0/0/0 gc=0 mean=0x1.5bc1511a45ce8p+15 p50=36640 \
       p90=70400 p99=107968 p999=149248 max=159285";
      "go offered=10000 achieved=0x1.3b1e8764743dp+13 goodput=0x1.3b1e8764743dp+13 \
       total=2017 completed=2017 errors=0 timeouts=0 retries=0 shed=0 malformed=0 \
       server_errors=0 faults=0/0/0/0/0/0 gc=0 mean=0x1.52b91d519c3d7p+15 p50=35680 \
       p90=68352 p99=104768 p999=143616 max=154385";
      "mc offered=60000 achieved=0x1.d2b56ffc6a8fcp+14 goodput=0x1.d2b56ffc6a8fcp+14 \
       total=12107 completed=12107 errors=0 timeouts=0 retries=0 shed=0 malformed=0 \
       server_errors=0 faults=0/0/0/0/0/0 gc=1 mean=0x1.8624ee0d523b7p+26 \
       p50=101974016 p90=184418304 p99=203292672 p999=204996608 max=205344947";
      "lwt offered=60000 achieved=0x1.bf32c263fa3a9p+14 goodput=0x1.bf32c263fa3a9p+14 \
       total=12107 completed=12107 errors=0 timeouts=0 retries=0 shed=0 malformed=0 \
       server_errors=0 faults=0/0/0/0/0/0 gc=5 mean=0x1.a7ff7c7ec8bfbp+26 \
       p50=110755840 p90=200540160 p99=220856320 p999=222691328 max=223028847";
      "go offered=60000 achieved=0x1.c9a99e08efa95p+14 goodput=0x1.c9a99e08efa95p+14 \
       total=12107 completed=12107 errors=0 timeouts=0 retries=0 shed=0 malformed=0 \
       server_errors=0 faults=0/0/0/0/0/0 gc=3 mean=0x1.95748cc98d5a6p+26 \
       p50=105971712 p90=191758336 p99=211288064 p999=212992000 max=213356747";
    ]
  in
  let got =
    List.concat_map
      (fun rate_rps ->
        List.map
          (fun (model, process) ->
            outcome_line (H.Loadgen.run ~model ~process ~rate_rps ~duration_ms:200 ()))
          H.Experiment.servers)
      [ 10_000; 60_000 ]
  in
  Alcotest.(check (list string)) "outcomes" expected got

(* A run without arrivals completes nothing and reads 0 rather than
   raising on an empty histogram. *)
let loadgen_empty_run () =
  let o =
    H.Loadgen.run ~model:H.Server.mc ~process:H.Server_effects.process_raw
      ~rate_rps:10_000 ~duration_ms:0 ()
  in
  Alcotest.(check (list int)) "counts and percentiles" [ 0; 0; 0; 0; 0; 0; 0 ]
    [ o.total_requests; o.completed; o.p50_ns; o.p90_ns; o.p99_ns; o.p999_ns; o.max_ns ]

(* Eventlogs of seed-42 faulted runs, digested and recorded before the
   zero-fault Fig 6 path was folded into the one engine.  Stalled first
   attempts and retries merge into the arrival stream in one fixed
   order: earlier time first; at equal times first attempts by request
   index, then retries in scheduling order.  The default plan at
   intensity 0.5 moves an event under any coarser reordering; the
   second run (arrivals ~200 ns apart, retries sent at once) produces
   exact-time ties between queued and on-time attempts, so it also
   pins the tie-break. *)
let faulted_trace_pinned () =
  let digest run =
    let _, ring = Retrofit_trace.Trace.scoped ~capacity:(1 lsl 17) run in
    Alcotest.(check int) "nothing dropped" 0 (Retrofit_trace.Trace.dropped ring);
    Digest.to_hex (Digest.string (Retrofit_trace.Export.of_trace_chrome ring))
  in
  Alcotest.(check string) "default plan at 0.5" "5e8ee74f646100127354f27dbe59c764"
    (digest (fun () ->
         List.iter
           (fun (model, process) ->
             ignore
               (H.Loadgen.run ~seed:42
                  ~faults:(H.Faults.scale 0.5 H.Faults.default)
                  ~model ~process ~rate_rps:20_000 ~duration_ms:200 ()))
           H.Experiment.servers));
  Alcotest.(check string) "exact-time ties" "027365f28e3c0ecf6f665af60fa4d80e"
    (digest (fun () ->
         ignore
           (H.Loadgen.run ~seed:42
              ~faults:{ H.Faults.none with drop = 0.3; stall = 0.3 }
              ~resilience:{ H.Loadgen.lenient_resilience with max_attempts = 3 }
              ~model:H.Server.mc ~process:H.Server_effects.process_raw
              ~rate_rps:5_000_000 ~duration_ms:1 ())))

let check_taxonomy name (o : H.Loadgen.outcome) =
  Alcotest.(check int)
    (name ^ " dispositions partition the trace")
    o.total_requests
    (o.completed + o.timeouts + o.malformed);
  Alcotest.(check int) (name ^ " errors = timeouts + malformed")
    (o.timeouts + o.malformed) o.errors;
  Alcotest.(check int)
    (name ^ " every fault accounted exactly once")
    o.faults.H.Loadgen.injected
    (o.faults.H.Loadgen.to_malformed + o.faults.H.Loadgen.to_retried
   + o.faults.H.Loadgen.to_timeout + o.faults.H.Loadgen.to_server_error
   + o.faults.H.Loadgen.to_absorbed)

(* The acceptance run: default fault plan, 20k req/s, all three
   servers — no uncaught exceptions, taxonomy invariants hold, and the
   run is deterministic in the seed. *)
let resilient_default_faults () =
  List.iter
    (fun (model, process) ->
      let run () =
        H.Loadgen.run ~faults:H.Faults.default ~model ~process ~rate_rps:20_000
          ~duration_ms:300 ()
      in
      let o = run () in
      let name = model.H.Server.name in
      check_taxonomy name o;
      Alcotest.(check bool) (name ^ " injected some faults") true
        (o.faults.H.Loadgen.injected > 0);
      Alcotest.(check bool) (name ^ " most requests still complete") true
        (float_of_int o.completed > 0.9 *. float_of_int o.total_requests);
      Alcotest.(check bool) (name ^ " crash barrier produced 500s") true
        (o.server_errors > 0);
      Alcotest.(check bool) (name ^ " drops were retried") true (o.retries > 0);
      let o' = run () in
      Alcotest.(check bool) (name ^ " deterministic in seed") true (o = o'))
    H.Experiment.servers

let resilient_sheds_under_tiny_cap () =
  let o =
    H.Loadgen.run ~faults:H.Faults.none
      ~resilience:{ H.Loadgen.default_resilience with queue_cap = 2 }
      ~model:H.Server.mc ~process:H.Server_effects.process_raw ~rate_rps:40_000
      ~duration_ms:200 ()
  in
  Alcotest.(check bool) "sheds under overload" true (o.H.Loadgen.shed > 0);
  check_taxonomy "mc tiny cap" o

(* Goodput degrades gracefully as fault intensity rises: it shrinks,
   but never collapses (the resilience layer keeps most requests
   completing even at twice the default fault rates). *)
let degradation_graceful () =
  let goodput intensity =
    let o =
      H.Loadgen.run
        ~faults:(H.Faults.scale intensity H.Faults.default)
        ~model:H.Server.mc ~process:H.Server_effects.process_raw ~rate_rps:20_000
        ~duration_ms:300 ()
    in
    check_taxonomy (Printf.sprintf "mc @%.1fx" intensity) o;
    float_of_int o.completed /. float_of_int o.total_requests
  in
  let g0 = goodput 0.0 and g1 = goodput 1.0 and g2 = goodput 2.0 in
  Alcotest.(check bool) "zero faults complete everything" true (g0 = 1.0);
  Alcotest.(check bool) (Printf.sprintf "monotone %.4f >= %.4f" g1 g2) true (g1 >= g2);
  Alcotest.(check bool) (Printf.sprintf "no collapse (%.4f)" g2) true (g2 > 0.9)

(* ---------------- crash barriers: cancelled <> crashed ---------------- *)

(* ISSUE 7 regression: each server's crash barrier must turn handler
   exceptions into a 500 but re-raise Cancelled/Killed unwinds — an
   asynchronously terminated request is not a server error. *)
let barriers_distinguish_cancelled () =
  let module Sched = Retrofit_core.Sched in
  let raw = H.Netsim.request_for ~target:"/" ~conn_id:0 in
  let withs : (string * (?pre:(unit -> unit) -> string -> string)) list =
    [
      ("mc", H.Server_effects.process_raw_with);
      ("go", H.Server_go.process_raw_with);
      ("lwt", H.Server_monad.process_raw_with);
    ]
  in
  List.iter
    (fun (name, (process : ?pre:(unit -> unit) -> string -> string)) ->
      (* a crashing handler is still a 500 *)
      (match
         H.Http.parse_response (process ~pre:(fun () -> failwith "boom") raw)
       with
      | Ok (resp, _) ->
          Alcotest.(check int) (name ^ " crash is 500") 500 resp.H.Http.status
      | Error e -> Alcotest.fail e);
      (* cancellation and kills pass through *)
      Alcotest.check_raises (name ^ " cancel re-raised") Sched.Cancelled
        (fun () ->
          ignore (process ~pre:(fun () -> raise Sched.Cancelled) raw));
      Alcotest.check_raises (name ^ " kill re-raised") Sched.Killed (fun () ->
          ignore (process ~pre:(fun () -> raise Sched.Killed) raw));
      (* and the plain path still serves *)
      match H.Http.parse_response (process raw) with
      | Ok (resp, _) ->
          Alcotest.(check int) (name ^ " still 200") 200 resp.H.Http.status
      | Error e -> Alcotest.fail e)
    withs

(* ---------------- supervised simulation ---------------- *)

let supervised_calm_completes () =
  let cfg =
    { (H.Supervised.default_config ~seed:5) with H.Supervised.connections = 24 }
  in
  let s = H.Supervised.run cfg in
  Alcotest.(check int) "all completed" s.H.Supervised.total
    s.H.Supervised.completed;
  Alcotest.(check int) "no restarts" 0 s.H.Supervised.restarts;
  Alcotest.(check int) "accounting conserved" s.H.Supervised.total
    (H.Supervised.accounted s);
  Alcotest.(check int) "no silent drops" 0 s.H.Supervised.silent

let supervised_chaos_deterministic () =
  let cfg =
    {
      (H.Supervised.default_config ~seed:13) with
      H.Supervised.connections = 30;
      chaos = Some (Retrofit_core.Sched.Chaos.default ~seed:13);
      wedge_rate = 0.1;
      max_restarts = 1000;
    }
  in
  let a = H.Supervised.run cfg and b = H.Supervised.run cfg in
  Alcotest.(check string) "double run byte-identical"
    (H.Supervised.summary_to_string a)
    (H.Supervised.summary_to_string b);
  Alcotest.(check int) "accounting conserved under chaos"
    a.H.Supervised.total (H.Supervised.accounted a);
  Alcotest.(check int) "no silent drops under chaos" 0 a.H.Supervised.silent

let supervised_drain_accounts_everything () =
  let cfg =
    {
      (H.Supervised.default_config ~seed:4) with
      H.Supervised.connections = 40;
      drain_after_ns = Some 300_000;
      drain_deadline_ns = 1_500_000;
    }
  in
  let s = H.Supervised.run cfg in
  Alcotest.(check bool) "drain ran" true (s.H.Supervised.drain_latency_ns >= 0);
  Alcotest.(check bool) "something was rejected mid-drain" true
    (s.H.Supervised.rejected_drain > 0);
  Alcotest.(check int) "accounting conserved" s.H.Supervised.total
    (H.Supervised.accounted s);
  Alcotest.(check int) "zero silent drops" 0 s.H.Supervised.silent;
  Alcotest.(check string) "graceful outcome" "completed" s.H.Supervised.outcome

let suite =
  [
    test "parse GET" parse_get;
    test "parse POST with body" parse_post_body;
    test "parse pipelined" parse_pipelined;
    test "incomplete requests" parse_incomplete;
    test "malformed requests" parse_malformed;
    test "keep-alive rules" keep_alive_rules;
    test "response roundtrip" response_roundtrip;
    test "loadgen request roundtrip" request_roundtrip;
    test "reason phrases" reason_phrases;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_poisson_ordered;
    test "netsim poisson" netsim_poisson;
    test "all servers serve the page" servers_serve;
    test "servers handle 404/405/400" servers_404_405;
    test "loadgen sanity" loadgen_sane;
    test "loadgen deterministic" loadgen_deterministic;
    test "throughput saturates" throughput_saturates;
    test "mc has best tail" mc_best_tail;
    test "format_request emits one content-length" format_request_content_length_once;
    test "netsim poisson determinism" netsim_poisson_properties;
    test "parser survives truncation at every prefix" parse_truncation_total;
    test "parser rejects garbage headers" parse_garbage_headers;
    test "fault plans are deterministic" faults_plan_deterministic;
    test "damaged requests rejected, crashes barriered" faults_damage_is_rejected_not_fatal;
    test "loadgen frozen counters" loadgen_frozen_counters;
    test "loadgen outcomes pinned" loadgen_outcomes_pinned;
    test "faulted trace order pinned" faulted_trace_pinned;
    test "loadgen empty run reads zero" loadgen_empty_run;
    test "resilient run under default faults" resilient_default_faults;
    test "admission control sheds" resilient_sheds_under_tiny_cap;
    test "goodput degrades gracefully" degradation_graceful;
    test "barriers: cancelled is not a 500" barriers_distinguish_cancelled;
    test "supervised calm run completes" supervised_calm_completes;
    test "supervised chaos deterministic" supervised_chaos_deterministic;
    test "supervised drain accounts everything" supervised_drain_accounts_everything;
  ]
