package exporttest

// Answer42 exports answer to the external test package.
const Answer42 = answer
