type event = { arrival_ns : int; conn_id : int; raw : string }

let request_for ~target ~conn_id =
  Http.format_request
    {
      Http.meth = Http.GET;
      target;
      version = "HTTP/1.1";
      headers =
        [
          ("host", "bench.local");
          ("user-agent", "retrofit-loadgen");
          ("x-conn", string_of_int conn_id);
        ];
      body = "";
    }

let check_params ~connections ~rate_rps ~duration_ms =
  if connections <= 0 then invalid_arg "Netsim: connections";
  if rate_rps <= 0 then invalid_arg "Netsim: rate";
  if duration_ms < 0 then invalid_arg "Netsim: duration"

let poisson_rate ~rng ~connections ~rate_rps ~duration_ms ~target () =
  check_params ~connections ~rate_rps ~duration_ms;
  let mean_interval = 1e9 /. float_of_int rate_rps in
  let horizon = duration_ms * 1_000_000 in
  let rec go now i acc =
    let gap = Retrofit_util.Rng.exponential rng ~mean:mean_interval in
    let now = now +. gap in
    if int_of_float now >= horizon then List.rev acc
    else begin
      let conn_id = i mod connections in
      let ev =
        { arrival_ns = int_of_float now; conn_id; raw = request_for ~target ~conn_id }
      in
      go now (i + 1) (ev :: acc)
    end
  in
  go 0.0 0 []
