type bound = Unbounded | Keep_first of int | Keep_last of int | Stride of int
