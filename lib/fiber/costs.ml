let basic = 1

let call = 3

let check = 2

let ret = 3

let pushtrap = 3

let poptrap = 2

let raise_ = 3

let extcall (c : Config.t) = match c.kind with Config.Stock -> 3 | Config.Mc -> 8

let cfun_body = 12

let callback (c : Config.t) = match c.kind with Config.Stock -> 4 | Config.Mc -> 16

let fiber_alloc = 25

let fiber_alloc_cached = 10

let fiber_free = 4

let perform = 6

let reperform = 4

let resume = 8

let resume_per_fiber = 2

let fiber_return = 8

let grow_base = 20

let grow_per_word = 1

let segment_check = 2

let chunk_commit = 12

let page_fault = 30

let page_commit = 6

let cow_share = 5

let cow_per_word = 1

type counter =
  | Ops
  | Instructions
  | Call
  | Ret
  | Overflow_check
  | Check_elided
  | Segment_check
  | Chunk_commit
  | Page_fault
  | Page_commit
  | Chunk_pool_hit
  | Stack_grow
  | Words_copied
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
  | Eff_tbl_probe
  | Resume
  | Cont_copy
  | Cont_share
  | Chunk_cow
  | Cow_words
  | Addr_index_probe

let all_counters =
  [
    Ops; Instructions; Call; Ret; Overflow_check; Check_elided; Segment_check;
    Chunk_commit; Page_fault; Page_commit; Chunk_pool_hit; Stack_grow;
    Words_copied; Raise; Pushtrap; Poptrap; Extcall; Callback; Handle;
    Fiber_alloc; Malloc; Stack_cache_lookup; Stack_cache_hit; Stack_cache_miss;
    Fiber_free; Fiber_return; Switch; Perform; Reperform; Eff_tbl_probe; Resume;
    Cont_copy; Cont_share; Chunk_cow; Cow_words; Addr_index_probe;
  ]

let counter_name = function
  | Ops -> "ops"
  | Instructions -> "instructions"
  | Call -> "call"
  | Ret -> "ret"
  | Overflow_check -> "overflow_check"
  | Check_elided -> "check_elided"
  | Segment_check -> "segment_check"
  | Chunk_commit -> "chunk_commit"
  | Page_fault -> "page_fault"
  | Page_commit -> "page_commit"
  | Chunk_pool_hit -> "chunk_pool_hit"
  | Stack_grow -> "stack_grow"
  | Words_copied -> "words_copied"
  | Raise -> "raise"
  | Pushtrap -> "pushtrap"
  | Poptrap -> "poptrap"
  | Extcall -> "extcall"
  | Callback -> "callback"
  | Handle -> "handle"
  | Fiber_alloc -> "fiber_alloc"
  | Malloc -> "malloc"
  | Stack_cache_lookup -> "stack_cache_lookup"
  | Stack_cache_hit -> "stack_cache_hit"
  | Stack_cache_miss -> "stack_cache_miss"
  | Fiber_free -> "fiber_free"
  | Fiber_return -> "fiber_return"
  | Switch -> "switch"
  | Perform -> "perform"
  | Reperform -> "reperform"
  | Eff_tbl_probe -> "eff_tbl_probe"
  | Resume -> "resume"
  | Cont_copy -> "cont_copy"
  | Cont_share -> "cont_share"
  | Chunk_cow -> "chunk_cow"
  | Cow_words -> "cow_words"
  | Addr_index_probe -> "addr_index_probe"

external counter_index : counter -> int = "%identity"

let n_counters = List.length all_counters
