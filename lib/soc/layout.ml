let page_size = 0x1000

let shared_base = 0x0000

let swap_base = 0x1000
let swap_size = page_size

let dedicated_base = 0x4000

let secret_base = 0x5000
let secret_size = page_size
let secret_dwords = 16

let probe_base = 0x6000

let mem_size = 0x10000

let mtvec = shared_base

let swap_entry = swap_base
