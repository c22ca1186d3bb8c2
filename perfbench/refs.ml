(* Recorded by record_refs.exe; do not edit. *)

let interp : (string * (int * int)) list =
  [
    ("fib(18)@stock", (87790, 121264));
    ("fib(18)@mc", (87790, 138074));
    ("ack(4)@stock", (139324, 180582));
    ("ack(4)@mc", (139324, 201993));
    ("tak(15)@stock", (111209, 152619));
    ("tak(15)@mc", (111209, 173524));
    ("motzkin(10)@stock", (82892, 110978));
    ("motzkin(10)@mc", (82892, 125221));
    ("sudan(2800)@stock", (92416, 114850));
    ("sudan(2800)@mc", (92416, 147410));
    ("sudan(3000)@stock", (99016, 123050));
    ("sudan(3000)@mc", (99016, 156410));
    ("sudan(3200)@stock", (105616, 131250));
    ("sudan(3200)@mc", (105616, 165410));
    ("exnval(9000)@stock", (108006, 135036));
    ("exnval(9000)@mc", (108006, 135036));
    ("exnval(10000)@stock", (120006, 150036));
    ("exnval(10000)@mc", (120006, 150036));
    ("exnval(11000)@stock", (132006, 165036));
    ("exnval(11000)@mc", (132006, 165036));
    ("exnraise(5000)@stock", (95006, 115036));
    ("exnraise(5000)@mc", (95006, 115036));
    ("exnraise(5500)@stock", (104506, 126536));
    ("exnraise(5500)@mc", (104506, 126536));
    ("exnraise(6000)@stock", (114006, 138036));
    ("exnraise(6000)@mc", (114006, 138036));
    ("extcall(10000)@stock", (100006, 240036));
    ("extcall(10000)@mc", (100006, 290038));
    ("extcall(11000)@stock", (110006, 264036));
    ("extcall(11000)@mc", (110006, 319038));
    ("extcall(12000)@stock", (120006, 288036));
    ("extcall(12000)@mc", (120006, 348038));
    ("effect_roundtrip(2200)@mc", (41806, 160653));
    ("effect_roundtrip(2500)@mc", (47506, 182553));
    ("effect_roundtrip(2800)@mc", (53206, 204453));
    ("effect_depth2(900)@mc", (45906, 170183));
    ("effect_depth2(1000)@mc", (51006, 189083));
    ("effect_depth2(1100)@mc", (56106, 207983));
    ("effect_depth8(300)@mc", (35106, 146873));
    ("effect_depth8(333)@mc", (38967, 163010));
    ("effect_depth8(366)@mc", (42828, 179147));
    ("effect_depth32(81)@mc", (30867, 137342));
    ("effect_depth32(90)@mc", (34296, 152543));
    ("effect_depth32(100)@mc", (38106, 169433));
    ("callback(7000)@mc", (84006, 385038));
    ("callback(8000)@mc", (96006, 440038));
    ("callback(9000)@mc", (108006, 495038));
    ("deep_recursion(8000)@mc", (88012, 157448));
    ("deep_recursion(9000)@mc", (99012, 174448));
    ("deep_recursion(10000)@mc", (110012, 191448));
    ("nqueens(6)@ms", (259328, 564116));
    ("nqueens(6)@ms-cow", (259328, 521865));
  ]

let websim : (string * string) list =
  [
    ("plain-mc-15000#1",
     "mc offered=15000 achieved=0x1.d21b7d8cc4301p+13 goodput=0x1.d21b7d8cc4301p+13 total=2982 completed=2982 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.8bc0afd14c67bp+15 p50=40000 p90=86912 p99=152320 p999=219520 max=230559");
    ("plain-mc-15000#2",
     "mc offered=15000 achieved=0x1.d57dc997e1569p+13 goodput=0x1.d57dc997e1569p+13 total=3005 completed=3005 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.905a481266bdap+15 p50=39520 p90=88960 p99=149504 p999=191616 max=218681");
    ("plain-mc-15000#3",
     "mc offered=15000 achieved=0x1.d58d3965dba0fp+13 goodput=0x1.d58d3965dba0fp+13 total=3004 completed=3004 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.8777d1a3f6749p+15 p50=38848 p90=85824 p99=146560 p999=202112 max=238647");
    ("plain-mc-15000#4",
     "mc offered=15000 achieved=0x1.e052576a698b9p+13 goodput=0x1.e052576a698b9p+13 total=3073 completed=3073 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.9dadd42e51793p+15 p50=41696 p90=92736 p99=165632 p999=215296 max=242504");
    ("plain-mc-30000#1",
     "mc offered=30000 achieved=0x1.ceffaa7148ffap+14 goodput=0x1.ceffaa7148ffap+14 total=2982 completed=2982 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.0ea53b942ca42p+19 p50=502016 p90=947200 p99=1121280 p999=1208320 max=1214339");
    ("plain-mc-30000#2",
     "mc offered=30000 achieved=0x1.cc421f2cc277p+14 goodput=0x1.cc421f2cc277p+14 total=3005 completed=3005 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.6c524c54d9bfcp+19 p50=606208 p90=1665024 p99=2201600 p999=2267136 max=2333403");
    ("plain-mc-30000#3",
     "mc offered=30000 achieved=0x1.cc6ec8cb1607dp+14 goodput=0x1.cc6ec8cb1607dp+14 total=3004 completed=3004 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.3ef3e077fd45ep+19 p50=544256 p90=1448960 p99=2059264 p999=2121728 max=2200105");
    ("plain-mc-30000#4",
     "mc offered=30000 achieved=0x1.d2555b389a9d2p+14 goodput=0x1.d2555b389a9d2p+14 total=3073 completed=3073 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.df1f5be3026a7p+20 p50=1755136 p90=3608576 p99=3997696 p999=4096000 max=4144251");
    ("plain-mc-45000#1",
     "mc offered=45000 achieved=0x1.d4363d28b60aap+14 goodput=0x1.d4363d28b60aap+14 total=2949 completed=2949 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.f5e73e64df45ep+23 p50=16416768 p90=29278208 p99=31965184 p999=32374784 max=32421527");
    ("plain-mc-45000#2",
     "mc offered=45000 achieved=0x1.d31a92081e6e3p+14 goodput=0x1.d31a92081e6e3p+14 total=2979 completed=2979 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.f1c1d4c656735p+23 p50=15974400 p90=29835264 p99=33275904 p999=33587200 max=33667279");
    ("plain-mc-45000#3",
     "mc offered=45000 achieved=0x1.d16ef4531f3c2p+14 goodput=0x1.d16ef4531f3c2p+14 total=2977 completed=2977 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.f877678e7d609p+23 p50=16490496 p90=30081024 p99=33587200 p999=33914880 max=33962313");
    ("plain-mc-45000#4",
     "mc offered=45000 achieved=0x1.d2e7033f8fb3bp+14 goodput=0x1.d2e7033f8fb3bp+14 total=3051 completed=3051 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.1702f1f0ba9bep+24 p50=17989632 p90=33144832 p99=35880960 p999=36110336 max=36131654");
    ("faults-mc-30000#1",
     "mc offered=30000 achieved=0x1.96a581f9a7984p+14 goodput=0x1.96a581f9a7984p+14 total=2982 completed=2952 errors=30 timeouts=0 retries=42 shed=0 malformed=30 server_errors=17 injected=127 gc=0 mean=0x1.027bd90214d02p+23 p50=8376320 p90=12869632 p99=13426688 p999=24494080 max=25401953");
    ("faults-mc-30000#2",
     "mc offered=30000 achieved=0x1.88ea74b7bfcdp+14 goodput=0x1.88ea74b7bfcdp+14 total=3005 completed=2972 errors=33 timeouts=0 retries=45 shed=0 malformed=33 server_errors=16 injected=142 gc=0 mean=0x1.09168cfef762ep+23 p50=7897088 p90=15122432 p99=18268160 p999=24772608 max=27503277");
    ("faults-mc-30000#3",
     "mc offered=30000 achieved=0x1.8ab158fe914f9p+14 goodput=0x1.8ab158fe914f9p+14 total=3004 completed=2978 errors=26 timeouts=0 retries=55 shed=0 malformed=26 server_errors=15 injected=141 gc=0 mean=0x1.c18aba3d8ccfp+22 p50=6549504 p90=16572416 p99=17891328 p999=27230208 max=32709343");
    ("faults-mc-30000#4",
     "mc offered=30000 achieved=0x1.82cff7c5c34d9p+14 goodput=0x1.82cff7c5c34d9p+14 total=3073 completed=3054 errors=19 timeouts=0 retries=206 shed=159 malformed=19 server_errors=15 injected=145 gc=0 mean=0x1.66950bb6e7b0ep+23 p50=11182080 p90=22118400 p99=25853952 p999=32686080 max=36223785");
    ("supervised-mc#1",
     "mc: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=32064 p99_ns=36928");
    ("supervised-mc#2",
     "mc: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=32128 p99_ns=36896");
    ("supervised-mc#3",
     "mc: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=32128 p99_ns=36896");
    ("supervised-mc#4",
     "mc: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=31888 p99_ns=36896");
    ("plain-lwt-15000#1",
     "lwt offered=15000 achieved=0x1.d21ab6ecaa903p+13 goodput=0x1.d21ab6ecaa903p+13 total=2982 completed=2982 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.af15345e1701ep+15 p50=42880 p90=95104 p99=177408 p999=470528 max=510382");
    ("plain-lwt-15000#2",
     "lwt offered=15000 achieved=0x1.d57c39a40eed4p+13 goodput=0x1.d57c39a40eed4p+13 total=3005 completed=3005 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.baa190bd772ecp+15 p50=42432 p90=99136 p99=184704 p999=479488 max=518786");
    ("plain-lwt-15000#3",
     "lwt offered=15000 achieved=0x1.d58c714d6aaf6p+13 goodput=0x1.d58c714d6aaf6p+13 total=3004 completed=3004 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.a7434aa707d72p+15 p50=41792 p90=93504 p99=170112 p999=383232 max=512848");
    ("plain-lwt-15000#4",
     "lwt offered=15000 achieved=0x1.e0518abcb84cap+13 goodput=0x1.e0518abcb84cap+13 total=3073 completed=3073 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.c5ff656237d0bp+15 p50=44800 p90=101696 p99=193280 p999=497664 max=522696");
    ("plain-lwt-30000#1",
     "lwt offered=30000 achieved=0x1.bdb5450aee3a8p+14 goodput=0x1.bdb5450aee3a8p+14 total=2982 completed=2982 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.28fef5deb0d9p+21 p50=2217984 p90=4067328 p99=4419584 p999=4591616 max=4639466");
    ("plain-lwt-30000#2",
     "lwt offered=30000 achieved=0x1.be77d7211234fp+14 goodput=0x1.be77d7211234fp+14 total=3005 completed=3005 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.e67ad705e0d1fp+20 p50=1502208 p90=4407296 p99=5312512 p999=5402624 max=5460955");
    ("plain-lwt-30000#3",
     "lwt offered=30000 achieved=0x1.c00f554225f6dp+14 goodput=0x1.c00f554225f6dp+14 total=3004 completed=3004 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.b41e23321bf3cp+20 p50=1639424 p90=3874816 p99=4833280 p999=4927488 max=5012565");
    ("plain-lwt-30000#4",
     "lwt offered=30000 achieved=0x1.bf0d29b24ae56p+14 goodput=0x1.bf0d29b24ae56p+14 total=3073 completed=3073 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.f54107ca047fap+21 p50=3698688 p90=7684096 p99=8024064 p999=8105984 max=8136170");
    ("plain-lwt-45000#1",
     "lwt offered=45000 achieved=0x1.c0ae86c05834p+14 goodput=0x1.c0ae86c05834p+14 total=2949 completed=2949 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.1a4b41f6cc594p+24 p50=18317312 p90=33177600 p99=36208640 p999=36634624 max=36705227");
    ("plain-lwt-45000#2",
     "lwt offered=45000 achieved=0x1.bfaf549420ea6p+14 goodput=0x1.bfaf549420ea6p+14 total=2979 completed=2979 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.1890872fb1a0ap+24 p50=17907712 p90=33751040 p99=37552128 p999=37912576 max=37989724");
    ("plain-lwt-45000#3",
     "lwt offered=45000 achieved=0x1.be25dc80313bcp+14 goodput=0x1.be25dc80313bcp+14 total=2977 completed=2977 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.1be60c5c872e3p+24 p50=18415616 p90=34013184 p99=37847040 p999=38240256 max=38282413");
    ("plain-lwt-45000#4",
     "lwt offered=45000 achieved=0x1.bf8f94aef914dp+14 goodput=0x1.bf8f94aef914dp+14 total=3051 completed=3051 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=1 mean=0x1.3776c8fbb882ep+24 p50=19972096 p90=37126144 p99=40239104 p999=40501248 max=40544054");
    ("faults-lwt-30000#1",
     "lwt offered=30000 achieved=0x1.88200cbca07f4p+14 goodput=0x1.88200cbca07f4p+14 total=2982 completed=2952 errors=30 timeouts=0 retries=42 shed=0 malformed=30 server_errors=17 injected=127 gc=1 mean=0x1.3e50c3ce0c7cep+23 p50=9912320 p90=16613376 p99=17498112 p999=31129600 max=33063154");
    ("faults-lwt-30000#2",
     "lwt offered=30000 achieved=0x1.7a089662571d7p+14 goodput=0x1.7a089662571d7p+14 total=3005 completed=2972 errors=33 timeouts=0 retries=124 shed=79 malformed=33 server_errors=16 injected=142 gc=1 mean=0x1.49e02791be892p+23 p50=9830400 p90=19120128 p99=23543808 p999=33619968 max=36813121");
    ("faults-lwt-30000#3",
     "lwt offered=30000 achieved=0x1.78f2cde87aedep+14 goodput=0x1.78f2cde87aedep+14 total=3004 completed=2978 errors=26 timeouts=0 retries=59 shed=4 malformed=26 server_errors=15 injected=141 gc=1 mean=0x1.2013a8edf296fp+23 p50=8519680 p90=20529152 p99=22200320 p999=31457280 max=37224350");
    ("faults-lwt-30000#4",
     "lwt offered=30000 achieved=0x1.7bd7de3e5d63dp+14 goodput=0x1.7bd7de3e5d63dp+14 total=3073 completed=3056 errors=17 timeouts=0 retries=583 shed=539 malformed=17 server_errors=12 injected=145 gc=1 mean=0x1.a581cab0ebe53p+23 p50=13189120 p90=25542656 p99=28803072 p999=40173568 max=58206649");
    ("supervised-lwt#1",
     "lwt: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=32064 p99_ns=36928");
    ("supervised-lwt#2",
     "lwt: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=32128 p99_ns=36896");
    ("supervised-lwt#3",
     "lwt: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=32128 p99_ns=36896");
    ("supervised-lwt#4",
     "lwt: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=31888 p99_ns=36896");
    ("plain-go-15000#1",
     "go offered=15000 achieved=0x1.d21b21e0548e8p+13 goodput=0x1.d21b21e0548e8p+13 total=2982 completed=2982 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.97c41c28853cap+15 p50=41184 p90=89920 p99=157056 p999=225024 max=238359");
    ("plain-go-15000#2",
     "go offered=15000 achieved=0x1.d57d10ffa1b45p+13 goodput=0x1.d57d10ffa1b45p+13 total=3005 completed=3005 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.9cdfb6650974dp+15 p50=40736 p90=91392 p99=156416 p999=197632 max=227681");
    ("plain-go-15000#3",
     "go offered=15000 achieved=0x1.d58cdd0bb9b1cp+13 goodput=0x1.d58cdd0bb9b1cp+13 total=3004 completed=3004 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.93306fcee9d7cp+15 p50=39968 p90=88896 p99=152448 p999=209920 max=245847");
    ("plain-go-15000#4",
     "go offered=15000 achieved=0x1.e051f8f2c6fc9p+13 goodput=0x1.e051f8f2c6fc9p+13 total=3073 completed=3073 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.aa9a85ca2f26cp+15 p50=43104 p90=96256 p99=174208 p999=222464 max=249104");
    ("plain-go-30000#1",
     "go offered=30000 achieved=0x1.c878448de0ddep+14 goodput=0x1.c878448de0ddep+14 total=2982 completed=2982 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.4218d3b3c43fep+20 p50=1373184 p90=1867776 p99=2121728 p999=2213888 max=2238864");
    ("plain-go-30000#2",
     "go offered=30000 achieved=0x1.c762c70d9952fp+14 goodput=0x1.c762c70d9952fp+14 total=3005 completed=3005 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.1ca0e465e38bdp+20 p50=1003008 p90=2570240 p99=3276800 p999=3348480 max=3414118");
    ("plain-go-30000#3",
     "go offered=30000 achieved=0x1.c8d631bf20d88p+14 goodput=0x1.c8d631bf20d88p+14 total=3004 completed=3004 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.df1d35dbdde98p+19 p50=915968 p90=2068480 p99=2842624 p999=2920448 max=3001357");
    ("plain-go-30000#4",
     "go offered=30000 achieved=0x1.ca2331525cb0ep+14 goodput=0x1.ca2331525cb0ep+14 total=3073 completed=3073 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.5fdd56ce197dep+21 p50=2639872 p90=5230592 p99=5623808 p999=5697536 max=5749251");
    ("plain-go-45000#1",
     "go offered=45000 achieved=0x1.cbf141e376554p+14 goodput=0x1.cbf141e376554p+14 total=2949 completed=2949 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.0872e5af9d628p+24 p50=17285120 p90=30867456 p99=33718272 p999=34144256 max=34190927");
    ("plain-go-45000#2",
     "go offered=45000 achieved=0x1.cadfcdf210955p+14 goodput=0x1.cadfcdf210955p+14 total=2979 completed=2979 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.068261489d6ecp+24 p50=16859136 p90=31440896 p99=35028992 p999=35389440 max=35454424");
    ("plain-go-45000#3",
     "go offered=45000 achieved=0x1.c942cddd4c8fbp+14 goodput=0x1.c942cddd4c8fbp+14 total=2977 completed=2977 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.09dbf4d22a7bp+24 p50=17383424 p90=31686656 p99=35356672 p999=35717120 max=35748513");
    ("plain-go-45000#4",
     "go offered=45000 achieved=0x1.caafc92020034p+14 goodput=0x1.caafc92020034p+14 total=3051 completed=3051 errors=0 timeouts=0 retries=0 shed=0 malformed=0 server_errors=0 injected=0 gc=0 mean=0x1.24f37aa144e34p+24 p50=18907136 p90=34766848 p99=37683200 p999=37912576 max=37960454");
    ("faults-go-30000#1",
     "go offered=30000 achieved=0x1.90835a277cc34p+14 goodput=0x1.90835a277cc34p+14 total=2982 completed=2952 errors=30 timeouts=0 retries=42 shed=0 malformed=30 server_errors=17 injected=127 gc=0 mean=0x1.1c0be622b0378p+23 p50=9084928 p90=14385152 p99=15089664 p999=27541504 max=27877125");
    ("faults-go-30000#2",
     "go offered=30000 achieved=0x1.82e8fed91e438p+14 goodput=0x1.82e8fed91e438p+14 total=3005 completed=2972 errors=33 timeouts=0 retries=45 shed=0 malformed=33 server_errors=16 injected=142 gc=0 mean=0x1.24e4bd15047abp+23 p50=8773632 p90=16760832 p99=20086784 p999=28278784 max=30993377");
    ("faults-go-30000#3",
     "go offered=30000 achieved=0x1.84d03e0962a2fp+14 goodput=0x1.84d03e0962a2fp+14 total=3004 completed=2978 errors=26 timeouts=0 retries=55 shed=0 malformed=26 server_errors=15 injected=141 gc=0 mean=0x1.f805ef68b42e1p+22 p50=7487488 p90=18186240 p99=19660800 p999=29032448 max=34803759");
    ("faults-go-30000#4",
     "go offered=30000 achieved=0x1.854f5611a4675p+14 goodput=0x1.854f5611a4675p+14 total=3073 completed=3056 errors=17 timeouts=0 retries=543 shed=499 malformed=17 server_errors=12 injected=145 gc=0 mean=0x1.7d1aadcd116c9p+23 p50=12099584 p90=22478848 p99=26951680 p999=37191680 max=49658428");
    ("supervised-go#1",
     "go: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=32064 p99_ns=36928");
    ("supervised-go#2",
     "go: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=32128 p99_ns=36896");
    ("supervised-go#3",
     "go: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=32128 p99_ns=36896");
    ("supervised-go#4",
     "go: total=3000 ok=3000 5xx=0 4xx=0 killed=0 drained=0 rejected=0 lost=0 silent=0 conns_aborted=0 restarts=0 escalations=0 watchdog_kills=0 chaos=- outcome=completed drain_ns=-1 p50_ns=31888 p99_ns=36896");
  ]
