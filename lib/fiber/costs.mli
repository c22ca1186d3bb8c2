(** The instruction-cost model of the fiber machine.

    Each bytecode operation is charged a weight approximating the number
    of x86-64 instructions the corresponding native-code sequence
    executes; the machine accumulates the weighted total in its
    "instructions" counter.  The weights encode the structural claims of
    the paper: exceptions cost the same under both runtimes (§5.1);
    Multicore pays for prologue overflow checks (§5.2), stack switching
    on external calls (§5.3), and room/bookkeeping on callbacks; fiber
    allocation dominates handler setup (§6.3: the a–b segment, at 23 ns,
    is "dominated by the memory allocation").

    Absolute values are a calibrated model, not measurements; the
    experiments report {e relative} differences between configurations,
    which depend only on which operations each configuration performs. *)

val basic : int
(** loads, stores, constants, arithmetic, jumps *)

val call : int
(** push return address, jump, frame setup *)

val check : int
(** one overflow check: compare and predicted branch *)

val ret : int

val pushtrap : int
(** push handler pc and exception pointer, update exception pointer *)

val poptrap : int

val raise_ : int
(** set sp from the exception pointer, reload, jump *)

val extcall : Config.t -> int
(** direct under stock; under MC also saves the fiber sp and switches to
    the system stack and back *)

val cfun_body : int
(** cost charged for the body of a host C function, identical in both
    configurations; it dilutes the switching overhead the way real C
    work does *)

val callback : Config.t -> int
(** under MC also checks room on the fiber and saves/restores
    handler_info *)

val fiber_alloc : int
(** malloc + preamble initialisation (the a–b cost) *)

val fiber_alloc_cached : int
(** stack-cache hit: pop + preamble initialisation *)

val fiber_free : int

val perform : int
(** allocate the continuation, sever the parent, switch (b–c) *)

val reperform : int
(** one extra handler hop: append fiber, switch *)

val resume : int
(** continue/discontinue base cost (c–d); plus [resume_per_fiber] per
    fiber traversed in the chain *)

val resume_per_fiber : int

val fiber_return : int
(** switch to parent and invoke the value closure (d–e) *)

val grow_base : int
(** reallocation bookkeeping; the copy itself is charged one unit per
    word through [grow_per_word] *)

val grow_per_word : int

(** {1 Alternative stack policies (see {!Stack_policy})} *)

val segment_check : int
(** the per-call boundary check of the segmented policy; unlike the
    red-zone scheme it cannot be elided for leaf frames *)

val chunk_commit : int
(** link one chunk from the free list (or allocate it) into the
    committed region *)

val page_fault : int
(** taking the modeled guard-page trap of the large-reserve policy *)

val page_commit : int
(** committing one page after a fault; charged per page *)

val cow_share : int
(** setting up one chunk-sharing clone fiber (refcount bumps plus
    register/bookkeeping copies) *)

val cow_per_word : int
(** deferred copy cost when a shared chunk is privatized by a write *)

(** {1 Counter vocabulary}

    The machine's cost counters, one constructor per name it reports.
    The machine keeps them in an [int array] indexed by
    {!counter_index}; {!counter_name} is the name under which the
    rendered {!Retrofit_util.Counter.t} table, the goldens and the
    metrics export list each one.  {!Instructions} is the weighted
    total of the costs above; the rest count events. *)

type counter =
  | Ops  (** bytecode operations executed *)
  | Instructions
  | Call
  | Ret
  | Overflow_check
  | Check_elided  (** prologue checks the red zone let the compiler drop *)
  | Segment_check
  | Chunk_commit
  | Page_fault
  | Page_commit
  | Chunk_pool_hit
  | Stack_grow
  | Words_copied  (** stack words copied by growth and clones *)
  | Raise
  | Pushtrap
  | Poptrap
  | Extcall
  | Callback
  | Handle
  | Fiber_alloc
  | Malloc
  | Stack_cache_lookup
  | Stack_cache_hit
  | Stack_cache_miss
  | Fiber_free
  | Fiber_return
  | Switch
  | Perform
  | Reperform
  | Eff_tbl_probe  (** observation only: handler tables probed; never charged *)
  | Resume
  | Cont_copy
  | Cont_share
  | Chunk_cow
  | Cow_words  (** words copied when a shared chunk is privatized *)
  | Addr_index_probe

val all_counters : counter list
(** Every counter, in declaration order. *)

val counter_name : counter -> string

external counter_index : counter -> int = "%identity"
(** Constant constructors are immediates numbered in declaration order,
    so this is the counter's position in {!all_counters}: a free array
    index. *)

val n_counters : int
