package storage

// WALSize gives the external test package the log's length in a data
// directory (walSize).
var WALSize = walSize
