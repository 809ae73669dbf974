type t = {
  block_size : int;
  fanout : int;
  cache_blocks : int;
  nvram_tail : bool;
  timestamp_all : bool;
  breaker_threshold : int;
  locate_memo : bool;
  read_ahead_blocks : int;
  repl_batch_blocks : int;
}

let default =
  {
    block_size = 1024;
    fanout = 16;
    cache_blocks = 1024;
    nvram_tail = true;
    timestamp_all = true;
    breaker_threshold = 8;
    locate_memo = true;
    read_ahead_blocks = 8;
    repl_batch_blocks = 32;
  }

let validate t =
  if t.fanout < 2 then Error (Errors.Bad_record "fanout must be >= 2")
  else if t.fanout > 4096 then Error (Errors.Bad_record "fanout must be <= 4096")
  else if t.block_size < 64 then Error (Errors.Bad_record "block size must be >= 64")
  else if t.cache_blocks < 1 then Error (Errors.Bad_record "cache must hold >= 1 block")
  else if t.read_ahead_blocks < 0 || t.read_ahead_blocks > 1024 then
    Error (Errors.Bad_record "read-ahead must be in [0, 1024] blocks")
  else if t.repl_batch_blocks < 1 || t.repl_batch_blocks > 4096 then
    Error (Errors.Bad_record "replication batch must be in [1, 4096] blocks")
  else Ok t

let levels t ~capacity =
  let rec go l p = if p >= capacity || l >= 12 then l else go (l + 1) (p * t.fanout) in
  go 1 t.fanout

let pow_fanout t l =
  let rec go acc l = if l = 0 then acc else go (acc * t.fanout) (l - 1) in
  go 1 l
