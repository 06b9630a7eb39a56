// rush-analyze: allow(pragma-once) fixture: a marker on line 1 waives the guard
namespace rush::obs { inline int waived() { return 4; } }
