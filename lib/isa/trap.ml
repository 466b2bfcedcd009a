type cause =
  | Fetch_access_fault
  | Illegal_instruction
  | Breakpoint
  | Load_misalign
  | Load_access_fault
  | Store_misalign
  | Store_access_fault
  | Ecall_from_user
  | Ecall_from_machine
  | Load_page_fault
  | Store_page_fault

let name = function
  | Fetch_access_fault -> "fetch-access-fault"
  | Illegal_instruction -> "illegal-instruction"
  | Breakpoint -> "breakpoint"
  | Load_misalign -> "load-misalign"
  | Load_access_fault -> "load-access-fault"
  | Store_misalign -> "store-misalign"
  | Store_access_fault -> "store-access-fault"
  | Ecall_from_user -> "ecall-from-user"
  | Ecall_from_machine -> "ecall-from-machine"
  | Load_page_fault -> "load-page-fault"
  | Store_page_fault -> "store-page-fault"

let code = function
  | Fetch_access_fault -> 1
  | Illegal_instruction -> 2
  | Breakpoint -> 3
  | Load_misalign -> 4
  | Load_access_fault -> 5
  | Store_misalign -> 6
  | Store_access_fault -> 7
  | Ecall_from_user -> 8
  | Ecall_from_machine -> 11
  | Load_page_fault -> 13
  | Store_page_fault -> 15

let is_memory = function
  | Load_misalign | Load_access_fault | Store_misalign | Store_access_fault
  | Load_page_fault | Store_page_fault -> true
  | Fetch_access_fault | Illegal_instruction | Breakpoint | Ecall_from_user
  | Ecall_from_machine -> false
