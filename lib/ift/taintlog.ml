type bound = Unbounded | Keep_last of int
