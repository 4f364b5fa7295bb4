// Clean fixture stub.
struct CleanMmuH {};
